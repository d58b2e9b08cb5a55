package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/history"
	"repro/internal/raftlite"
	"repro/internal/sim"
	"repro/internal/wal"
)

// ErrNotLeader is returned by a replica that cannot serve a write; its
// message carries a leader hint when known.
var ErrNotLeader = errors.New("store: not leader")

// replCommand is the replicated form of a write: everything is expressed
// as a transaction so apply is a single deterministic step.
type replCommand struct {
	Guards    []Cmp `json:"guards,omitempty"`
	OnSuccess []Op  `json:"onSuccess,omitempty"`
	// Time is the proposal's virtual timestamp; applying it (instead of
	// each replica's local clock) keeps the state machine deterministic
	// across replicas.
	Time int64 `json:"time"`
}

// ReplicaServer is one member of a replicated store cluster: a raftlite
// node plus a local Store as the applied state machine. Writes go through
// the leader and commit at a majority; every replica applies the identical
// command sequence, so all local stores evolve through the same (H, S).
//
// Reads are served from the *local* store: on a follower that is a stale
// read — the store-level analog of the apiserver watch cache, and exactly
// the behaviour HBASE-3136 tripped over in ZooKeeper.
type ReplicaServer struct {
	id    sim.NodeID
	world *sim.World
	raft  *raftlite.Node
	st    *Store
	rpc   *sim.RPCServer

	pending map[uint64]func(any, error) // raft index -> reply to the proposer's client
	subs    map[string]*subscription
}

// NewReplicaGroup creates n replicas (ids like "etcd-1".."etcd-n") wired
// into the world, each with its own WAL.
func NewReplicaGroup(w *sim.World, n int, cfg raftlite.Config) []*ReplicaServer {
	ids := make([]sim.NodeID, n)
	for i := range ids {
		ids[i] = sim.NodeID(fmt.Sprintf("etcd-%d", i+1))
	}
	out := make([]*ReplicaServer, n)
	for i, id := range ids {
		out[i] = newReplica(w, id, ids, cfg, wal.New())
	}
	return out
}

func newReplica(w *sim.World, id sim.NodeID, peers []sim.NodeID, cfg raftlite.Config, log *wal.Log) *ReplicaServer {
	r := &ReplicaServer{
		id:      id,
		world:   w,
		st:      New(),
		pending: make(map[uint64]func(any, error)),
		subs:    make(map[string]*subscription),
	}
	r.raft = raftlite.NewNode(w, id, peers, cfg, log, r.applyEntry)
	r.rpc = sim.NewRPCServer(w.Network())
	r.register()
	// The raft node registered itself as the network handler and process
	// for id; take over both so client RPCs are demultiplexed and crash
	// semantics include the applied store and subscriptions.
	w.Join(r, nil)
	return r
}

// ID returns the replica's node ID.
func (r *ReplicaServer) ID() sim.NodeID { return r.id }

// Raft returns the underlying consensus node.
func (r *ReplicaServer) Raft() *raftlite.Node { return r.raft }

// Crash implements sim.Process (delegating volatile-state loss to raft;
// the applied store is rebuilt on restart by replaying the WAL).
func (r *ReplicaServer) Crash() {
	r.raft.Crash()
	r.pending = make(map[uint64]func(any, error))
	for _, sub := range r.subs {
		sub.handle.Cancel()
	}
	r.subs = make(map[string]*subscription)
	r.st = New() // applied state is volatile; re-derived from the raft log
}

// Restart implements sim.Process.
func (r *ReplicaServer) Restart() {
	r.raft.Restart()
}

// HandleMessage implements sim.Handler: demultiplex raft vs client RPC.
func (r *ReplicaServer) HandleMessage(m *sim.Message) {
	if strings.HasPrefix(m.Kind, "raft.") {
		r.raft.HandleMessage(m)
		return
	}
	r.st.SetNow(int64(r.world.Now()))
	r.rpc.HandleRequest(m)
}

// applyEntry is the raft state-machine hook: decode and apply the command;
// if this replica proposed it, answer the waiting client.
func (r *ReplicaServer) applyEntry(e raftlite.Entry) {
	var cmd replCommand
	if err := json.Unmarshal(e.Data, &cmd); err != nil {
		return
	}
	r.st.SetNow(cmd.Time)
	res, err := r.st.Txn(cmd.Guards, cmd.OnSuccess)
	if reply, ok := r.pending[e.Index]; ok {
		delete(r.pending, e.Index)
		if err != nil && err != ErrTxnFailed {
			reply(nil, err)
		} else {
			reply(&TxnResponse{Succeeded: res.Succeeded, Revision: res.Revision}, nil)
		}
	}
}

func (r *ReplicaServer) notLeaderErr() error {
	if hint := r.raft.Leader(); hint != "" && hint != r.id {
		return fmt.Errorf("%s: leader=%s", ErrNotLeader.Error(), hint)
	}
	return ErrNotLeader
}

func (r *ReplicaServer) register() {
	r.rpc.Handle(MethodRange, func(_ sim.NodeID, body any) (any, error) {
		req := body.(*RangeRequest)
		kvs, rev := r.st.Range(req.Prefix)
		return &RangeResponse{KVs: kvs, Revision: rev}, nil
	})
	r.rpc.Handle(MethodGet, func(_ sim.NodeID, body any) (any, error) {
		req := body.(*GetRequest)
		kv, _, found := r.st.Get(req.Key)
		return &GetResponse{KV: kv, Found: found}, nil
	})
	r.rpc.HandleAsync(MethodTxn, func(_ sim.NodeID, body any, reply sim.Reply) {
		req := body.(*TxnRequest)
		r.proposeWithReply(replCommand{
			Guards: req.Guards, OnSuccess: req.OnSuccess,
		}, reply.Send)
	})
	r.rpc.Handle(MethodWatch, func(from sim.NodeID, body any) (any, error) {
		req := body.(*WatchRequest)
		subID, client := req.SubID, from
		h, err := r.st.Watch(req.Prefix, req.StartRev, func(events []history.Event) {
			r.world.Network().Send(r.id, client, KindWatchPush, &WatchPush{SubID: subID, Events: events})
		})
		if err != nil {
			return nil, err
		}
		key := subKey(from, req.SubID)
		if old, ok := r.subs[key]; ok {
			old.handle.Cancel()
		}
		r.subs[key] = &subscription{subID: req.SubID, client: from, handle: h}
		return nil, nil
	})
	r.rpc.Handle(MethodEventsSince, func(_ sim.NodeID, body any) (any, error) {
		req := body.(*EventsSinceRequest)
		events, err := r.st.EventsSince(req.Prefix, req.Rev)
		if err != nil {
			return nil, err
		}
		return &EventsSinceResponse{Events: events}, nil
	})
}

// proposeWithReply registers the reply before proposing so a synchronous
// apply (single-node or fast path) still finds it.
func (r *ReplicaServer) proposeWithReply(cmd replCommand, reply func(any, error)) {
	cmd.Time = int64(r.world.Now())
	data, err := json.Marshal(cmd)
	if err != nil {
		reply(nil, err)
		return
	}
	next := r.raft.LastIndex() + 1
	r.pending[next] = reply
	idx, ok := r.raft.Propose(data)
	if !ok {
		delete(r.pending, next)
		reply(nil, r.notLeaderErr())
		return
	}
	if idx != next {
		// Defensive: realign the registration.
		delete(r.pending, next)
		r.pending[idx] = reply
	}
}
