// Store failover: the substrate beneath the whole model. The paper's
// history H only contains *fully committed* events (§3, footnote 1); this
// demo runs the raft-replicated store, kills its leader mid-workload, and
// shows (a) commits survive and continue, (b) every replica applies the
// identical history, and (c) a partitioned follower serves stale reads —
// the store-level origin of the partial histories everything above it
// inherits.
//
// Run with: go run ./examples/storefailover
package main

import (
	"errors"
	"fmt"

	"repro/internal/raftlite"
	"repro/internal/sim"
	"repro/internal/store"
)

type adminClient struct {
	rpc *sim.RPCClient
	w   *sim.World
}

func (c *adminClient) handle(m *sim.Message) { c.rpc.HandleResponse(m) }

func (c *adminClient) call(to sim.NodeID, method *sim.Method, body any) (any, error) {
	var out any
	var outErr error
	done := false
	c.rpc.Call(to, method, body, func(b any, err error) { out, outErr, done = b, err, true })
	for !done && c.w.Kernel().Step() {
	}
	if !done {
		return nil, errors.New("no response")
	}
	return out, outErr
}

func main() {
	fmt.Println("== raft-replicated store: failover and follower staleness ==")
	fmt.Println()

	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond, Jitter: sim.Millisecond / 2})
	replicas := store.NewReplicaGroup(w, 3, raftlite.DefaultConfig())
	cl := &adminClient{w: w}
	cl.rpc = sim.NewRPCClient(w.Network(), "admin", 300*sim.Millisecond)
	w.Network().Register("admin", sim.HandlerFunc(cl.handle))

	leader := func() *store.ReplicaServer {
		for _, r := range replicas {
			if r.Raft().Role() == raftlite.Leader && !w.Crashed(r.ID()) {
				return r
			}
		}
		return nil
	}
	write := func(key, val string) {
		for attempt := 0; attempt < 10; attempt++ {
			l := leader()
			if l == nil {
				w.Kernel().RunFor(500 * sim.Millisecond)
				continue
			}
			_, err := cl.call(l.ID(), store.MethodPut, &store.PutRequest{Key: key, Value: []byte(val)})
			if err == nil {
				return
			}
			w.Kernel().RunFor(300 * sim.Millisecond)
		}
		fmt.Printf("  write %s failed: no leader\n", key)
	}

	w.Kernel().RunFor(2 * sim.Second)
	l := leader()
	fmt.Printf("cluster of 3 replicas elected %s (term %d)\n", l.ID(), l.Raft().Term())

	for i := 1; i <= 3; i++ {
		write(fmt.Sprintf("/cfg/%d", i), "before-failover")
	}
	w.Kernel().RunFor(sim.Second)
	fmt.Printf("wrote 3 keys; every replica's store revision: ")
	for _, r := range replicas {
		fmt.Printf("%s=%d ", r.ID(), r.Store().Revision())
	}
	fmt.Println()

	fmt.Printf("\n-- crashing the leader %s --\n", l.ID())
	_ = w.Crash(l.ID())
	w.Kernel().RunFor(2 * sim.Second)
	l2 := leader()
	fmt.Printf("new leader: %s (term %d); writes continue:\n", l2.ID(), l2.Raft().Term())
	write("/cfg/4", "after-failover")
	w.Kernel().RunFor(sim.Second)

	fmt.Printf("\n-- restarting %s; it recovers from its WAL and catches up --\n", l.ID())
	_ = w.Restart(l.ID())
	w.Kernel().RunFor(3 * sim.Second)
	for _, r := range replicas {
		fmt.Printf("  %s: revision=%d keys=%d\n", r.ID(), r.Store().Revision(), r.Store().Len())
	}

	// Follower staleness: partition one follower, write, read from it.
	var follower *store.ReplicaServer
	for _, r := range replicas {
		if r.ID() != leader().ID() {
			follower = r
			break
		}
	}
	fmt.Printf("\n-- partitioning follower %s, then writing /cfg/5 --\n", follower.ID())
	for _, r := range replicas {
		if r.ID() != follower.ID() {
			w.Network().Partition(follower.ID(), r.ID())
		}
	}
	write("/cfg/5", "follower-cannot-see-this")
	w.Kernel().RunFor(sim.Second)
	resp, err := cl.call(follower.ID(), store.MethodGet, &store.GetRequest{Key: "/cfg/5"})
	if err != nil {
		fmt.Println("  follower read error:", err)
	} else if !resp.(*store.GetResponse).Found {
		fmt.Printf("  follower %s does NOT see /cfg/5 — a stale read (H' lagging H)\n", follower.ID())
	} else {
		fmt.Println("  follower unexpectedly saw the write")
	}
	for _, r := range replicas {
		if r.ID() != follower.ID() {
			w.Network().Heal(follower.ID(), r.ID())
		}
	}
	w.Kernel().RunFor(2 * sim.Second)
	resp, _ = cl.call(follower.ID(), store.MethodGet, &store.GetRequest{Key: "/cfg/5"})
	if resp.(*store.GetResponse).Found {
		fmt.Printf("  after healing, %s converged and serves /cfg/5\n", follower.ID())
	}

	fmt.Println("\ncommitted-only histories + follower lag are exactly the (H, H') pair")
	fmt.Println("the paper's model starts from; the layers above only widen the gap.")
}
