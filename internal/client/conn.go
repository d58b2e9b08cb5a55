// Package client is the client-side library every component uses to talk
// to apiservers — the analog of k8s.io/client-go. It provides a typed
// asynchronous Conn (CRUD + watch) and an Informer: a local object cache
// (S') kept up to date by list+watch, with relist on window expiry and
// upstream source switching.
//
// The paper singles this layer out (§6.2): "a common shared library often
// contains the caches for (H', S'), such as the client-side cache employed
// by all Kubernetes services [10]". Informer is that cache; the testing
// tool's perturbations aim squarely at it.
package client

import (
	"slices"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Conn is a component's connection to its current upstream apiserver. It
// multiplexes RPC responses and watch pushes; components forward incoming
// messages to HandleMessage.
//
// The upstream can be switched at runtime (SwitchAPIServer): components
// that fail over between apiservers — kubelets in the Figure 2 scenario —
// may land on a *staler* upstream, which is the germ of time traveling.
type Conn struct {
	world *sim.World
	self  sim.NodeID
	rpc   *sim.RPCClient

	informers map[uint64]*Informer
	// timers owns the informers' liveness and resync timers. A connection
	// lives for one boot of its component, so it is the connection, not the
	// component, that owns them: Reset retires them with it.
	timers *sim.Owner
	connState
}

// connState is what a connection itself carries from one event to the
// next; its informers and its RPC client carry their own.
type connState struct {
	api     sim.NodeID
	nextSub uint64
}

// NewConn creates a connection owned by node self, initially pointed at
// the apiserver node api.
func NewConn(w *sim.World, self, api sim.NodeID, timeout sim.Duration) *Conn {
	c := &Conn{
		world:     w,
		self:      self,
		rpc:       sim.NewRPCClient(w.Network(), self, timeout),
		informers: make(map[uint64]*Informer),
		connState: connState{api: api},
	}
	c.timers = w.Kernel().Own(string(self)+"/informers", c.fire)
	return c
}

// fire runs an informer timer. A live connection never loses an informer,
// so the subscription the tag names is there.
func (c *Conn) fire(tag sim.EventTag) {
	switch inf := c.informers[tag.N]; tag.Kind {
	case "inf-liveness":
		inf.livenessFire(tag.Epoch)
	case "inf-relist":
		inf.periodicRelistFire()
	}
}

// Self returns the owning node's ID.
func (c *Conn) Self() sim.NodeID { return c.self }

// APIServer returns the current upstream apiserver.
func (c *Conn) APIServer() sim.NodeID { return c.api }

// SwitchAPIServer repoints the connection at a different apiserver and
// tells every informer to relist from it.
func (c *Conn) SwitchAPIServer(api sim.NodeID) {
	if api == c.api {
		return
	}
	c.api = api
	for _, inf := range c.Informers() {
		inf.relist("switched upstream")
	}
}

// Reset drops all in-flight calls and informers (crash semantics) and
// retires their timers: a dropped informer's pending liveness or resync
// event still comes due, and runs nothing. The component's Restart makes a
// new connection.
func (c *Conn) Reset() {
	c.rpc.Reset()
	c.informers = make(map[uint64]*Informer)
	c.timers.Retire()
}

// Retired reports whether the connection has been Reset: the boot of its
// component that made it is over.
func (c *Conn) Retired() bool { return c.timers.Retired() }

// HandleMessage routes a message; it reports whether it was consumed.
func (c *Conn) HandleMessage(m *sim.Message) bool {
	if c.rpc.HandleResponse(m) {
		return true
	}
	if push, ok := m.Payload.(*apiserver.WatchPushMsg); ok {
		if inf, ok := c.informers[push.SubID]; ok {
			inf.onPush(push.Events)
		}
		return true
	}
	return false
}

// List fetches objects of a kind. quorum selects a read-through list.
func (c *Conn) List(kind cluster.Kind, quorum bool, cb func([]*cluster.Object, int64, error)) {
	c.rpc.Call(c.api, apiserver.MethodList, &apiserver.ListRequest{Kind: kind, Quorum: quorum},
		func(body any, err error) {
			if cb == nil {
				return
			}
			if err != nil {
				cb(nil, 0, err)
				return
			}
			resp := body.(*apiserver.ListResponse)
			cb(resp.Objects, resp.Revision, nil)
		})
}

// Get fetches one object.
func (c *Conn) Get(kind cluster.Kind, name string, quorum bool, cb func(*cluster.Object, bool, error)) {
	c.rpc.CallWith(c.api, apiserver.MethodGet, &apiserver.GetRequest{Kind: kind, Name: name, Quorum: quorum}, got, cb)
}

// got completes a Get: arg is its callback.
func got(arg, body any, err error) {
	cb := arg.(func(*cluster.Object, bool, error))
	if cb == nil {
		return
	}
	if err != nil {
		cb(nil, false, err)
		return
	}
	resp := body.(*apiserver.GetResponse)
	cb(resp.Object, resp.Found, nil)
}

// Create stores a new object. The caller hands obj over: it becomes the
// request, and nobody writes to it again (DESIGN.md, "Object ownership").
func (c *Conn) Create(obj *cluster.Object, cb func(*cluster.Object, error)) {
	c.rpc.CallWith(c.api, apiserver.MethodCreate, &apiserver.CreateRequest{Object: obj}, wrote, cb)
}

// Update overwrites an object guarded by its ResourceVersion (0 = blind).
// The caller hands obj — a fresh Clone or a new object — over, as for
// Create.
func (c *Conn) Update(obj *cluster.Object, cb func(*cluster.Object, error)) {
	c.rpc.CallWith(c.api, apiserver.MethodUpdate, &apiserver.UpdateRequest{Object: obj}, wrote, cb)
}

// Delete removes an object; expectRV of 0 deletes unconditionally.
func (c *Conn) Delete(kind cluster.Kind, name string, expectRV int64, cb func(error)) {
	c.rpc.Call(c.api, apiserver.MethodDelete, &apiserver.DeleteRequest{Kind: kind, Name: name, ExpectRV: expectRV},
		func(_ any, err error) {
			if cb != nil {
				cb(err)
			}
		})
}

// wrote completes a Create or an Update: arg is its callback.
func wrote(arg, body any, err error) {
	cb := arg.(func(*cluster.Object, error))
	if cb == nil {
		return
	}
	if err != nil {
		cb(nil, err)
		return
	}
	cb(body.(*apiserver.WriteResponse).Object, nil)
}

// sortedSubIDs returns the live informers' subscription IDs in order.
func (c *Conn) sortedSubIDs() []uint64 {
	ids := make([]uint64, 0, len(c.informers))
	for id := range c.informers {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Informers returns the connection's live informers in subscription-ID
// order.
func (c *Conn) Informers() []*Informer {
	ids := c.sortedSubIDs()
	out := make([]*Informer, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.informers[id])
	}
	return out
}
