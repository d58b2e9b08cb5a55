package sim

import (
	"errors"
	"fmt"
	"slices"
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

// RPCRequest is the payload of a request message. The message's Seq is the
// call's identity: unique in the world, so no two boots of a client — and no
// two clients — ever name a call alike.
type RPCRequest struct {
	Method *Method
	Body   any
}

// RPCResponse is the payload of a response message. ID is the Seq of the
// request message it answers.
type RPCResponse struct {
	ID   uint64
	Body any
	Err  string // empty on success
}

// RPCClient issues asynchronous calls over the simulated network and
// correlates responses. A component embeds one client and forwards response
// messages to HandleResponse from its message handler.
type RPCClient struct {
	net     *Network
	self    NodeID
	timeout Duration
	// pending are the outstanding calls in call order, which is ascending
	// request Seq.
	pending []pendingCall
	// routes are the links the client has called over, one per destination:
	// a call resolves its link without a lookup in the network's table.
	routes []route
	// expireFn is c.expire bound once: a call's timeout is a delivery-form
	// event on its request message, with no closure to allocate.
	expireFn func(*Message)
}

// pendingCall is an outstanding call: it completes as done(arg, body, err).
type pendingCall struct {
	id    uint64 // the request message's Seq
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
	m := c.net.send(c.link(to), method.req, &RPCRequest{Method: method, Body: body})
	pc := pendingCall{id: m.Seq, done: done, arg: arg}
	if c.timeout > 0 {
		// Untagged like a closure, so a pending call blocks a snapshot.
		k := c.net.k
		pc.timer = k.atDeliver(k.now.Add(c.timeout), c.expireFn, m, k.delayLane(c.timeout))
	}
	c.pending = append(c.pending, pc)
}

// take removes and returns the pending call with the given ID.
func (c *RPCClient) take(id uint64) (pendingCall, bool) {
	for i, pc := range c.pending {
		if pc.id == id {
			c.pending = slices.Delete(c.pending, i, i+1)
			return pc, true
		}
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
	resp, ok := m.Payload.(*RPCResponse)
	if !ok {
		return false
	}
	pc, ok := c.take(resp.ID)
	if !ok {
		return true // late response after timeout/reset; swallow it
	}
	pc.timer.Cancel()
	if resp.Err != "" {
		pc.done(pc.arg, nil, ErrRemote{Msg: resp.Err})
		return true
	}
	pc.done(pc.arg, resp.Body, nil)
	return true
}

// Reset drops every pending call without invoking callbacks. Components
// call it from their Crash hook: a crashed process forgets in-flight work.
func (c *RPCClient) Reset() {
	for _, pc := range c.pending {
		pc.timer.Cancel()
	}
	clear(c.pending)
	c.pending = c.pending[:0]
}

// PendingCalls returns the number of outstanding calls.
func (c *RPCClient) PendingCalls() int { return len(c.pending) }

// Reply is an asynchronous handler's way back to the caller: a value, so
// handing one to the handler allocates nothing. Send must be called exactly
// once per request.
type Reply struct {
	s   *RPCServer
	req *Message
}

// Send answers the request with body, or with err.
func (r Reply) Send(body any, err error) { r.s.reply(r.req, body, err) }

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
	req, ok := m.Payload.(*RPCRequest)
	if !ok {
		return false
	}
	h, ok := s.handlers[req.Method]
	switch {
	case !ok:
		s.reply(m, nil, fmt.Errorf("unknown method %q", req.Method.Name))
	case h.sync != nil:
		body, err := h.sync(m.From, req.Body)
		s.reply(m, body, err)
	default:
		h.async(m.From, req.Body, Reply{s: s, req: m})
	}
	return true
}

// reply answers request message m on the reverse of its link.
func (s *RPCServer) reply(m *Message, body any, err error) {
	resp := &RPCResponse{ID: m.Seq, Body: body}
	if err != nil {
		resp.Err = err.Error()
		resp.Body = nil
	}
	s.net.send(s.net.back(m.link), m.Payload.(*RPCRequest).Method.resp, resp)
}
