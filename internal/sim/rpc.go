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

// RPCRequest is the payload of a request message. The message's Seq is the
// call's identity: unique in the world, so no two boots of a client — and no
// two clients — ever name a call alike.
type RPCRequest struct {
	Method string
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
	pending map[uint64]pendingCall // by request message Seq
	// reqKinds interns "rpc-req:"+method per method: every call sends one.
	reqKinds map[string]string
}

type pendingCall struct {
	cb    func(any, error)
	timer Timer // zero (inert) when the client has no timeout
}

// NewRPCClient creates a client for node self with the given call timeout
// (0 disables timeouts).
func NewRPCClient(net *Network, self NodeID, timeout Duration) *RPCClient {
	return &RPCClient{net: net, self: self, timeout: timeout,
		pending: make(map[uint64]pendingCall), reqKinds: make(map[string]string)}
}

// messageKind returns prefix+method, concatenated once per method and kept
// in kinds: a message kind is built for every request and every response.
func messageKind(kinds map[string]string, prefix, method string) string {
	kind, ok := kinds[method]
	if !ok {
		kind = prefix + method
		kinds[method] = kind
	}
	return kind
}

// Call sends method(body) to the server node and invokes cb exactly once:
// with the response body, with a remote error, or with ErrRPCTimeout.
func (c *RPCClient) Call(to NodeID, method string, body any, cb func(any, error)) {
	id := c.net.Send(c.self, to, messageKind(c.reqKinds, "rpc-req:", method), &RPCRequest{Method: method, Body: body})
	pc := pendingCall{cb: cb}
	if c.timeout > 0 {
		pc.timer = c.net.Kernel().Schedule(c.timeout, func() {
			if _, ok := c.pending[id]; ok {
				delete(c.pending, id)
				cb(nil, ErrRPCTimeout)
			}
		})
	}
	c.pending[id] = pc
}

// HandleResponse consumes a message if it is an RPC response for this
// client, invoking the matching callback. It reports whether the message
// was consumed.
func (c *RPCClient) HandleResponse(m *Message) bool {
	resp, ok := m.Payload.(*RPCResponse)
	if !ok {
		return false
	}
	pc, ok := c.pending[resp.ID]
	if !ok {
		return true // late response after timeout/reset; swallow it
	}
	delete(c.pending, resp.ID)
	pc.timer.Cancel()
	if resp.Err != "" {
		pc.cb(nil, ErrRemote{Msg: resp.Err})
		return true
	}
	pc.cb(resp.Body, nil)
	return true
}

// Reset drops every pending call without invoking callbacks. Components
// call it from their Crash hook: a crashed process forgets in-flight work.
func (c *RPCClient) Reset() {
	for _, pc := range c.pending {
		pc.timer.Cancel()
	}
	c.pending = make(map[uint64]pendingCall)
}

// PendingCalls returns the number of outstanding calls.
func (c *RPCClient) PendingCalls() int { return len(c.pending) }

// Reply sends the result of an asynchronous handler back to the caller.
// It must be invoked exactly once per request.
type Reply func(body any, err error)

// RPCServer dispatches request messages to registered method handlers and
// sends responses back to the caller.
type RPCServer struct {
	net      *Network
	self     NodeID
	handlers map[string]func(from NodeID, body any, reply Reply)
	// respKinds interns "rpc-resp:"+method per method: every reply sends one.
	respKinds map[string]string
}

// NewRPCServer creates a dispatcher for node self.
func NewRPCServer(net *Network, self NodeID) *RPCServer {
	return &RPCServer{net: net, self: self,
		handlers: make(map[string]func(NodeID, any, Reply)), respKinds: make(map[string]string)}
}

// Handle registers a synchronous method handler.
func (s *RPCServer) Handle(method string, fn func(from NodeID, body any) (any, error)) {
	s.HandleAsync(method, func(from NodeID, body any, reply Reply) {
		reply(fn(from, body))
	})
}

// HandleAsync registers a handler that may defer its reply — e.g. an
// apiserver write that must first round-trip to the store.
func (s *RPCServer) HandleAsync(method string, fn func(from NodeID, body any, reply Reply)) {
	s.handlers[method] = fn
}

// HandleRequest consumes a message if it is an RPC request, dispatching it
// and (eventually) replying. It reports whether the message was consumed.
func (s *RPCServer) HandleRequest(m *Message) bool {
	req, ok := m.Payload.(*RPCRequest)
	if !ok {
		return false
	}
	reply := func(body any, err error) {
		resp := &RPCResponse{ID: m.Seq, Body: body}
		if err != nil {
			resp.Err = err.Error()
			resp.Body = nil
		}
		s.net.Send(s.self, m.From, messageKind(s.respKinds, "rpc-resp:", req.Method), resp)
	}
	h, ok := s.handlers[req.Method]
	if !ok {
		reply(nil, fmt.Errorf("unknown method %q", req.Method))
		return true
	}
	h(m.From, req.Body, reply)
	return true
}
