package store

import (
	"strconv"

	"repro/internal/history"
	"repro/internal/sim"
)

// RPC methods served by Server.
var (
	MethodRange       = sim.NewMethod("store.Range")
	MethodGet         = sim.NewMethod("store.Get")
	MethodTxn         = sim.NewMethod("store.Txn")
	MethodWatch       = sim.NewMethod("store.Watch")
	MethodEventsSince = sim.NewMethod("store.EventsSince")
)

// KindWatchPush is the message kind of server->subscriber event pushes;
// perturbation interceptors match on it to create staleness and gaps.
const KindWatchPush = "store.watch-push"

// Request/response bodies. These cross the simulated network by reference
// and receivers may retain them; none is modified once sent (a WatchPush's
// Events are the commit's batch, shared by every subscriber).
type (
	// RangeRequest lists live keys under Prefix.
	RangeRequest struct{ Prefix string }
	// RangeResponse carries a consistent snapshot and its revision.
	RangeResponse struct {
		KVs      []KV
		Revision int64
	}
	// GetRequest reads one key.
	GetRequest struct{ Key string }
	// GetResponse carries the value if Found.
	GetResponse struct {
		KV    KV
		Found bool
	}
	// TxnRequest is a guarded atomic batch.
	TxnRequest struct {
		Guards    []Cmp
		OnSuccess []Op
	}
	// TxnResponse reports which branch ran.
	TxnResponse struct {
		Succeeded bool
		Revision  int64
	}
	// WatchRequest subscribes the caller to events under Prefix after
	// StartRev. SubID is chosen by the caller to demultiplex pushes. Its
	// reply carries no body.
	WatchRequest struct {
		Prefix   string
		StartRev int64
		SubID    uint64
	}
	// EventsSinceRequest pulls retained events after Rev under Prefix.
	EventsSinceRequest struct {
		Prefix string
		Rev    int64
	}
	// EventsSinceResponse carries the pulled events.
	EventsSinceResponse struct{ Events []history.Event }
	// WatchPush is the payload of KindWatchPush messages.
	WatchPush struct {
		SubID  uint64
		Events []history.Event
	}
)

type subscription struct {
	subID  uint64
	client sim.NodeID
	handle WatchHandle
}

// Server exposes a Store as a simulated network actor. It is the "etcd
// endpoint" apiservers connect to.
//
// Crash semantics: the store's data is durable (etcd persists via WAL), so
// a crash only stops serving and severs watch subscriptions; data survives
// into Restart. Subscribers must re-list and re-watch — and whether they do
// so correctly is precisely what partial-history testing probes.
type Server struct {
	id    sim.NodeID
	world *sim.World
	st    *Store
	rpc   *sim.RPCServer
	subs  map[string]*subscription // key: client/subID
	// pushes arena-allocates the watch-push payloads: one per subscriber
	// per commit; txns the transactions' replies.
	pushes sim.Slab[WatchPush]
	txns   sim.Slab[TxnResponse]
}

// NewServer wires a store actor into the world under the given node ID. It
// arms no timer: the store only answers.
func NewServer(w *sim.World, id sim.NodeID, st *Store) *Server {
	s := &Server{
		id:    id,
		world: w,
		st:    st,
		subs:  make(map[string]*subscription),
	}
	s.rpc = sim.NewRPCServer(w.Network())
	s.register()
	w.Join(s, nil)
	return s
}

// ID returns the server's node ID.
func (s *Server) ID() sim.NodeID { return s.id }

// Store returns the underlying store (tests and oracles read ground truth
// through it directly, bypassing the network).
func (s *Server) Store() *Store { return s.st }

// Crash stops serving and drops all watch subscriptions.
func (s *Server) Crash() {
	for _, sub := range s.subs {
		sub.handle.Cancel()
	}
	s.subs = make(map[string]*subscription)
}

// Restart resumes serving. Durable store state is retained.
func (s *Server) Restart() {}

// HandleMessage implements sim.Handler.
func (s *Server) HandleMessage(m *sim.Message) {
	s.st.SetNow(int64(s.world.Now()))
	s.rpc.HandleRequest(m)
}

// pushTo returns the notify of client's subscription subID: each batch goes
// out as one watch-push message, on the link to client resolved here, when
// the watch is registered or restored. Committed events are immutable, so
// every subscriber's push carries the commit's one batch.
func (s *Server) pushTo(client sim.NodeID, subID uint64) WatchNotify {
	net := s.world.Network()
	route := net.Route(s.id, client)
	return func(events []history.Event) {
		net.SendOn(route, KindWatchPush, &s.pushes.One(WatchPush{SubID: subID, Events: events})[0])
	}
}

// subKey names a client's watch subscription in subs.
func subKey(client sim.NodeID, subID uint64) string {
	return string(client) + "/" + strconv.FormatUint(subID, 10)
}

func (s *Server) register() {
	s.rpc.Handle(MethodRange, func(_ sim.NodeID, body any) (any, error) {
		req := body.(*RangeRequest)
		kvs, rev := s.st.Range(req.Prefix)
		return &RangeResponse{KVs: kvs, Revision: rev}, nil
	})
	s.rpc.Handle(MethodGet, func(_ sim.NodeID, body any) (any, error) {
		req := body.(*GetRequest)
		kv, _, found := s.st.Get(req.Key)
		return &GetResponse{KV: kv, Found: found}, nil
	})
	s.rpc.Handle(MethodTxn, func(_ sim.NodeID, body any) (any, error) {
		req := body.(*TxnRequest)
		res, err := s.st.Txn(req.Guards, req.OnSuccess)
		if err != nil && err != ErrTxnFailed {
			return nil, err
		}
		return &s.txns.One(TxnResponse{Succeeded: res.Succeeded, Revision: res.Revision})[0], nil
	})
	s.rpc.Handle(MethodWatch, func(from sim.NodeID, body any) (any, error) {
		req := body.(*WatchRequest)
		h, err := s.st.Watch(req.Prefix, req.StartRev, s.pushTo(from, req.SubID))
		if err != nil {
			return nil, err
		}
		key := subKey(from, req.SubID)
		if old, ok := s.subs[key]; ok {
			old.handle.Cancel()
		}
		s.subs[key] = &subscription{subID: req.SubID, client: from, handle: h}
		return nil, nil
	})
	s.rpc.Handle(MethodEventsSince, func(_ sim.NodeID, body any) (any, error) {
		req := body.(*EventsSinceRequest)
		events, err := s.st.EventsSince(req.Prefix, req.Rev)
		if err != nil {
			return nil, err
		}
		return &EventsSinceResponse{Events: events}, nil
	})
}
