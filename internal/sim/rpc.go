package sim

import (
	"errors"
	"fmt"
)

// ErrRPCTimeout is delivered to a call's callback when no response arrives
// within the client's timeout (the server crashed, the link is partitioned,
// or the response was dropped by an interceptor).
var ErrRPCTimeout = errors.New("sim: rpc timeout")

// ErrRemote wraps an application-level error string returned by a server.
type ErrRemote struct{ Msg string }

func (e ErrRemote) Error() string { return e.Msg }

// Method is one RPC method: its name and the kinds of the messages that
// carry its requests ("rpc-req:"+name) and responses ("rpc-resp:"+name),
// built once. A method is one value, declared by the package that serves
// it; servers dispatch on its identity.
type Method struct {
	Name      string
	req, resp string
}

// NewMethod declares the method called name.
func NewMethod(name string) *Method {
	return &Method{Name: name, req: "rpc-req:" + name, resp: "rpc-resp:" + name}
}

// RPCClient issues asynchronous calls over the simulated network and
// correlates responses. A component embeds one client and forwards response
// messages to HandleResponse from its message handler. A call is its request
// message's Seq: unique in the world, so no two boots of a client — and no
// two clients — ever name a call alike.
type RPCClient struct {
	net     *Network
	self    NodeID
	timeout Duration
	// pending are the outstanding calls in call order, which is ascending
	// request Seq, from head on: an answered call before head is gone, one
	// answered out of order after it is a hole (id 0) until head passes it.
	pending []pendingCall
	head    int
	live    int // the calls pending holds
	// routes are the links the client has called over, one per destination:
	// a call resolves its link without a lookup in the network's table.
	routes []route
	// expireFn is c.expire bound once: a call's timeout is a delivery-form
	// event on its request message, with no closure to allocate.
	expireFn func(*Message)
}

// pendingCall is an outstanding call: it completes as done(arg, body, err).
type pendingCall struct {
	id    uint64 // the request message's Seq; 0 once answered
	done  func(arg, body any, err error)
	arg   any
	timer Timer // zero (inert) when the client has no timeout
}

type route struct {
	to NodeID
	l  *link
}

// NewRPCClient creates a client for node self with the given call timeout
// (0 disables timeouts).
func NewRPCClient(net *Network, self NodeID, timeout Duration) *RPCClient {
	c := &RPCClient{net: net, self: self, timeout: timeout}
	c.expireFn = c.expire
	return c
}

// link returns the client's link to node to.
func (c *RPCClient) link(to NodeID) *link {
	for _, r := range c.routes {
		if r.to == to {
			return r.l
		}
	}
	l := c.net.link(linkKey{c.self, to})
	c.routes = append(c.routes, route{to: to, l: l})
	return l
}

// Call sends method(body) to the server node and invokes cb exactly once:
// with the response body, with a remote error, or with ErrRPCTimeout.
func (c *RPCClient) Call(to NodeID, method *Method, body any, cb func(any, error)) {
	c.CallWith(to, method, body, callback, cb)
}

// callback completes a Call: arg is its callback.
func callback(arg, body any, err error) { arg.(func(any, error))(body, err) }

// CallWith is Call with a continuation that needs no closure: done is a
// function that captures nothing and arg what it works on — a callback of
// the caller's own type, or a record the request already allocated — and
// the call completes, exactly once, as done(arg, body, err).
func (c *RPCClient) CallWith(to NodeID, method *Method, body any, done func(arg, body any, err error), arg any) {
	m := c.net.send(c.link(to), method.req, body, method, 0, "")
	c.add(pendingCall{id: m.Seq, done: done, arg: arg})
	if c.timeout > 0 {
		// Untagged like a closure, so a pending call blocks a snapshot. The
		// timeout holds the request message until it fires or is canceled.
		k := c.net.k
		c.pending[len(c.pending)-1].timer = k.atDeliver(k.now.Add(c.timeout), c.expireFn, m, k.delayLane(c.timeout))
	}
	m.release()
}

// add appends a call, first closing up the answered ones when the slice is
// full: its order is kept, and nothing is shifted while there is room.
func (c *RPCClient) add(pc pendingCall) {
	if len(c.pending) == cap(c.pending) && c.live < len(c.pending) {
		kept := c.pending[:0]
		for _, p := range c.pending[c.head:] {
			if p.id != 0 {
				kept = append(kept, p)
			}
		}
		clear(c.pending[len(kept):])
		c.pending, c.head = kept, 0
	}
	c.pending = append(c.pending, pc)
	c.live++
}

// take removes and returns the pending call with the given ID. Calls are
// answered in call order almost always, so the one sought is nearly always
// at head, which then moves past it and any holes behind it.
func (c *RPCClient) take(id uint64) (pendingCall, bool) {
	for i := c.head; i < len(c.pending); i++ {
		if c.pending[i].id != id {
			continue
		}
		pc := c.pending[i]
		c.pending[i] = pendingCall{}
		c.live--
		if i == c.head {
			for c.head < len(c.pending) && c.pending[c.head].id == 0 {
				c.head++
			}
			if c.head == len(c.pending) {
				c.pending, c.head = c.pending[:0], 0
			}
		}
		return pc, true
	}
	return pendingCall{}, false
}

// expire is a call's timeout coming due: req is its request message.
func (c *RPCClient) expire(req *Message) {
	if pc, ok := c.take(req.Seq); ok {
		pc.done(pc.arg, nil, ErrRPCTimeout)
	}
}

// HandleResponse consumes a message if it is an RPC response for this
// client, invoking the matching callback. It reports whether the message
// was consumed.
func (c *RPCClient) HandleResponse(m *Message) bool {
	if m.Call == 0 {
		return false
	}
	pc, ok := c.take(m.Call)
	if !ok {
		return true // late response after timeout/reset; swallow it
	}
	pc.timer.Cancel()
	if m.Err != "" {
		pc.done(pc.arg, nil, ErrRemote{Msg: m.Err})
		return true
	}
	pc.done(pc.arg, m.Payload, nil)
	return true
}

// Reset drops every pending call without invoking callbacks. Components
// call it from their Crash hook: a crashed process forgets in-flight work.
func (c *RPCClient) Reset() {
	for _, pc := range c.pending[c.head:] {
		pc.timer.Cancel()
	}
	clear(c.pending)
	c.pending, c.head, c.live = c.pending[:0], 0, 0
}

// PendingCalls returns the number of outstanding calls.
func (c *RPCClient) PendingCalls() int { return c.live }

// Reply is an asynchronous handler's way back to the caller: a value, so
// handing one to the handler allocates nothing. It carries what the answer
// needs, not the request message, which the network reuses once the
// handler returns. Send must be called exactly once per request.
type Reply struct {
	s      *RPCServer
	l      *link // the link the request came in on
	call   uint64
	method *Method
}

// Send answers the request with body, or with err.
func (r Reply) Send(body any, err error) { r.s.reply(r.l, r.call, r.method, body, err) }

// handler is one registered method: sync answers in the call, async may
// defer its reply.
type handler struct {
	sync  func(from NodeID, body any) (any, error)
	async func(from NodeID, body any, reply Reply)
}

// RPCServer dispatches request messages to registered method handlers and
// sends each response back on the link its request came in on.
type RPCServer struct {
	net      *Network
	handlers map[*Method]handler
}

// NewRPCServer creates a dispatcher on the network.
func NewRPCServer(net *Network) *RPCServer {
	return &RPCServer{net: net, handlers: make(map[*Method]handler)}
}

// Handle registers a synchronous method handler: its answer goes out with
// no reply closure.
func (s *RPCServer) Handle(method *Method, fn func(from NodeID, body any) (any, error)) {
	s.handlers[method] = handler{sync: fn}
}

// HandleAsync registers a handler that may defer its reply — e.g. an
// apiserver write that must first round-trip to the store.
func (s *RPCServer) HandleAsync(method *Method, fn func(from NodeID, body any, reply Reply)) {
	s.handlers[method] = handler{async: fn}
}

// HandleRequest consumes a message if it is an RPC request, dispatching it
// and (eventually) replying. It reports whether the message was consumed.
func (s *RPCServer) HandleRequest(m *Message) bool {
	if m.Method == nil || m.Call != 0 {
		return false
	}
	h, ok := s.handlers[m.Method]
	switch {
	case !ok:
		s.reply(m.link, m.Seq, m.Method, nil, fmt.Errorf("unknown method %q", m.Method.Name))
	case h.sync != nil:
		body, err := h.sync(m.From, m.Payload)
		s.reply(m.link, m.Seq, m.Method, body, err)
	default:
		h.async(m.From, m.Payload, Reply{s: s, l: m.link, call: m.Seq, method: m.Method})
	}
	return true
}

// reply answers call, a request of method that came in on link l, on l's
// reverse.
func (s *RPCServer) reply(l *link, call uint64, method *Method, body any, err error) {
	var text string
	if err != nil {
		body, text = nil, err.Error()
	}
	s.net.send(s.net.back(l), method.resp, body, method, call, text).release()
}
