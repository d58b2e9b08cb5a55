package sim

import (
	"errors"
	"fmt"
	"testing"
	"unsafe"
)

var (
	echoMethod   = NewMethod("echo")
	failMethod   = NewMethod("fail")
	nopeMethod   = NewMethod("nope")
	slowMethod   = NewMethod("slow")
	deferMethod  = NewMethod("defer")
	getMethod    = NewMethod("get")
	putMethod    = NewMethod("put")
	doubleMethod = NewMethod("double")
)

type rpcFixture struct {
	k      *Kernel
	n      *Network
	client *RPCClient
	server *RPCServer
}

func newRPCFixture(timeout Duration) *rpcFixture {
	k := NewKernel(1)
	n := NewNetwork(k, Millisecond, 0)
	f := &rpcFixture{k: k, n: n}
	f.client = NewRPCClient(n, "client", timeout)
	f.server = NewRPCServer(n)
	n.Register("client", HandlerFunc(func(m *Message) { f.client.HandleResponse(m) }))
	n.Register("server", HandlerFunc(func(m *Message) { f.server.HandleRequest(m) }))
	return f
}

func TestRPCCallRoundTrip(t *testing.T) {
	f := newRPCFixture(0)
	f.server.Handle(echoMethod, func(from NodeID, body any) (any, error) {
		return fmt.Sprintf("%s:%v", from, body), nil
	})
	var got any
	f.client.Call("server", echoMethod, 42, func(body any, err error) {
		if err != nil {
			t.Errorf("err = %v", err)
		}
		got = body
	})
	f.k.Drain()
	if got != "client:42" {
		t.Fatalf("got %v", got)
	}
}

func TestRPCRemoteError(t *testing.T) {
	f := newRPCFixture(0)
	f.server.Handle(failMethod, func(NodeID, any) (any, error) {
		return nil, errors.New("application exploded")
	})
	var gotErr error
	f.client.Call("server", failMethod, nil, func(_ any, err error) { gotErr = err })
	f.k.Drain()
	var remote ErrRemote
	if !errors.As(gotErr, &remote) || remote.Msg != "application exploded" {
		t.Fatalf("err = %v", gotErr)
	}
}

func TestRPCUnknownMethod(t *testing.T) {
	f := newRPCFixture(0)
	var gotErr error
	f.client.Call("server", nopeMethod, nil, func(_ any, err error) { gotErr = err })
	f.k.Drain()
	if gotErr == nil {
		t.Fatal("unknown method succeeded")
	}
}

func TestRPCTimeoutOnPartition(t *testing.T) {
	f := newRPCFixture(100 * Millisecond)
	f.server.Handle(echoMethod, func(NodeID, any) (any, error) { return "ok", nil })
	f.n.Partition("client", "server")
	var gotErr error
	calls := 0
	f.client.Call("server", echoMethod, nil, func(_ any, err error) { gotErr = err; calls++ })
	f.k.Drain()
	if !errors.Is(gotErr, ErrRPCTimeout) {
		t.Fatalf("err = %v", gotErr)
	}
	if calls != 1 {
		t.Fatalf("callback ran %d times", calls)
	}
	if f.client.PendingCalls() != 0 {
		t.Fatal("pending call leaked after timeout")
	}
}

// An answered call's timeout stays queued until its deadline, canceled; it
// must not keep the request message (and the chunk it was cut from) alive
// until then.
func TestAnsweredCallTimeoutHoldsNoMessage(t *testing.T) {
	f := newRPCFixture(100 * Millisecond)
	f.server.Handle(echoMethod, func(NodeID, any) (any, error) { return "ok", nil })
	var got any
	f.client.Call("server", echoMethod, nil, func(body any, err error) { got = body })
	timeout := f.client.pending[0].timer
	f.k.RunFor(10 * Millisecond)
	if got != "ok" || f.client.PendingCalls() != 0 {
		t.Fatalf("call not answered: got %v, %d pending", got, f.client.PendingCalls())
	}
	ev := &f.k.slots[timeout.slot]
	if ev.gen != timeout.gen || !ev.canceled {
		t.Fatal("the answered call's timeout is no longer queued; the test checks nothing")
	}
	if ev.msg != nil || ev.deliver != nil || ev.fn != nil {
		t.Fatalf("canceled timeout slot holds msg=%v deliver=%t fn=%t", ev.msg, ev.deliver != nil, ev.fn != nil)
	}
}

func TestRPCLateResponseAfterTimeoutSwallowed(t *testing.T) {
	f := newRPCFixture(50 * Millisecond)
	// Handler that replies late via an async path.
	f.server.HandleAsync(slowMethod, func(from NodeID, body any, reply Reply) {
		f.k.Schedule(200*Millisecond, func() { reply.Send("late", nil) })
	})
	calls := 0
	var firstErr error
	f.client.Call("server", slowMethod, nil, func(_ any, err error) {
		calls++
		if calls == 1 {
			firstErr = err
		}
	})
	f.k.Drain()
	if calls != 1 {
		t.Fatalf("callback invoked %d times (late response not swallowed)", calls)
	}
	if !errors.Is(firstErr, ErrRPCTimeout) {
		t.Fatalf("first err = %v", firstErr)
	}
}

func TestRPCAsyncHandler(t *testing.T) {
	f := newRPCFixture(0)
	f.server.HandleAsync(deferMethod, func(from NodeID, body any, reply Reply) {
		f.k.Schedule(30*Millisecond, func() { reply.Send(body, nil) })
	})
	var got any
	f.client.Call("server", deferMethod, "deferred", func(body any, err error) { got = body })
	f.k.Drain()
	if got != "deferred" {
		t.Fatalf("got %v", got)
	}
	if f.k.Now() < Time(30*Millisecond) {
		t.Fatalf("reply arrived too early: %v", f.k.Now())
	}
}

func TestRPCResetDropsPending(t *testing.T) {
	f := newRPCFixture(0)
	f.server.Handle(echoMethod, func(NodeID, any) (any, error) { return "ok", nil })
	called := false
	f.client.Call("server", echoMethod, nil, func(any, error) { called = true })
	f.client.Reset() // crash semantics before the response arrives
	f.k.Drain()
	if called {
		t.Fatal("callback ran after Reset")
	}
}

// A response that outlives its caller's boot is nobody's: the next boot's
// client numbers its calls from the same network as everyone else, so the
// late answer to the dead boot's first call cannot be taken for the answer
// to the new boot's first call.
func TestLateResponseDoesNotCrossBoots(t *testing.T) {
	f := newRPCFixture(0)
	f.server.Handle(getMethod, func(NodeID, any) (any, error) { return "get-body", nil })
	f.server.Handle(putMethod, func(NodeID, any) (any, error) { return "put-body", nil })
	f.n.SetLinkDelay("server", "client", 50*Millisecond)
	f.client.Call("server", getMethod, nil, func(any, error) { t.Error("the dead boot's callback ran") })
	var got []any
	f.k.Schedule(5*Millisecond, func() {
		f.client.Reset() // crash ...
		f.client = NewRPCClient(f.n, "client", 0)
		f.client.Call("server", putMethod, nil, func(body any, _ error) { got = append(got, body) }) // ... and reboot
	})
	f.k.Drain()
	if len(got) != 1 || got[0] != "put-body" {
		t.Fatalf("the new boot's put was answered with %v, want [put-body]", got)
	}
}

func TestRPCConcurrentCallsCorrelate(t *testing.T) {
	f := newRPCFixture(0)
	f.server.Handle(doubleMethod, func(_ NodeID, body any) (any, error) {
		return body.(int) * 2, nil
	})
	results := map[int]int{}
	for i := 1; i <= 10; i++ {
		i := i
		f.client.Call("server", doubleMethod, i, func(body any, err error) {
			results[i] = body.(int)
		})
	}
	f.k.Drain()
	for i := 1; i <= 10; i++ {
		if results[i] != i*2 {
			t.Fatalf("results = %v", results)
		}
	}
}

// TestRPCMessageKindsAreInterned: the kind on the wire is "rpc-req:"+method
// and "rpc-resp:"+method, for a known and an unknown method alike, and every
// message of a method carries the one string its Method was declared with —
// the concatenation runs once per method, not once per message, and no call
// looks it up.
func TestRPCMessageKindsAreInterned(t *testing.T) {
	f := newRPCFixture(0)
	f.server.Handle(echoMethod, func(_ NodeID, body any) (any, error) { return body, nil })
	var kinds []string
	f.n.Register("client", HandlerFunc(func(m *Message) { kinds = append(kinds, m.Kind); f.client.HandleResponse(m) }))
	f.n.Register("server", HandlerFunc(func(m *Message) { kinds = append(kinds, m.Kind); f.server.HandleRequest(m) }))
	for i := 0; i < 2; i++ {
		f.client.Call("server", echoMethod, i, func(any, error) {})
		f.client.Call("server", nopeMethod, i, func(any, error) {})
		f.k.Drain()
	}
	want := []string{"rpc-req:echo", "rpc-req:nope", "rpc-resp:echo", "rpc-resp:nope"}
	interned := []string{echoMethod.req, nopeMethod.req, echoMethod.resp, nopeMethod.resp}
	if len(kinds) != 8 {
		t.Fatalf("observed %d messages, want 8: %v", len(kinds), kinds)
	}
	for i, k := range kinds {
		if k != want[i%4] {
			t.Fatalf("message %d kind = %q, want %q", i, k, want[i%4])
		}
		if unsafe.StringData(k) != unsafe.StringData(interned[i%4]) {
			t.Fatalf("message %d kind %q is not its method's string", i, k)
		}
	}
}

// One round trip allocates nothing: the envelope rides in the two
// messages, which the network reuses once they are delivered and the
// timeout is canceled; the pending call is a slice element, both
// deliveries and the timeout are closure-free events on the messages, a
// synchronous handler is answered without a reply closure and an
// asynchronous one is handed its Reply by value, and the link and the
// message kinds are resolved before the call.
func TestRPCRoundTripAllocations(t *testing.T) {
	f := newRPCFixture(100 * Millisecond)
	f.server.Handle(echoMethod, func(_ NodeID, body any) (any, error) { return body, nil })
	f.server.HandleAsync(deferMethod, func(_ NodeID, body any, reply Reply) { reply.Send(body, nil) })
	body := &struct{}{}
	done := 0
	cb := func(any, error) { done++ }
	for _, method := range []*Method{echoMethod, deferMethod} {
		done = 0
		for i := 0; i < 64; i++ { // warm: slot table, link records, routes, the pending slice
			f.client.Call("server", method, body, cb)
		}
		f.k.Drain()
		allocs := testing.AllocsPerRun(1000, func() {
			f.client.Call("server", method, body, cb)
			f.k.Drain()
		})
		if allocs != 0 {
			t.Fatalf("an RPC round trip of %s allocates %v, want 0", method.Name, allocs)
		}
		if done != 64+1001 || f.client.PendingCalls() != 0 {
			t.Fatalf("%s: done = %d, pending = %d", method.Name, done, f.client.PendingCalls())
		}
	}
}
