package store

import (
	"fmt"

	"repro/internal/sim"
)

// Example_storeFailover runs the substrate beneath the whole model: the
// raft-replicated store. The paper's history H holds only fully committed
// events (§3, footnote 1). The example kills the leader mid-workload and
// shows that commits survive and continue, that every replica applies the
// same history, and that a partitioned follower serves stale reads: the
// store-level origin of the partial histories every layer above inherits.
func Example_storeFailover() {
	f := newReplicas(3)
	w := f.w
	put := func(key, value string) {
		if err := f.put(key, value); err != nil {
			fmt.Println(err)
		}
	}
	revisions := func() {
		for _, r := range f.replicas {
			fmt.Printf("  %s: revision %d, %d keys\n", r.ID(), r.Store().Revision(), r.Store().Len())
		}
	}
	get := func(r *ReplicaServer, key string) {
		resp, err := f.cl.call(r.ID(), MethodGet, &GetRequest{Key: key})
		if err != nil {
			fmt.Println("  read error:", err)
			return
		}
		fmt.Printf("  %s serves %s: %v\n", r.ID(), key, resp.(*GetResponse).Found)
	}

	l := f.leader()
	fmt.Printf("leader: %s\n", l.ID())
	for i := 1; i <= 3; i++ {
		put(fmt.Sprintf("/cfg/%d", i), "before-failover")
	}
	w.Kernel().RunFor(sim.Second)
	revisions()

	_ = w.Crash(l.ID())
	w.Kernel().RunFor(2 * sim.Second)
	fmt.Printf("-- %s crashed; new leader: %s --\n", l.ID(), f.leader().ID())
	put("/cfg/4", "after-failover")
	w.Kernel().RunFor(sim.Second)

	_ = w.Restart(l.ID())
	w.Kernel().RunFor(3 * sim.Second)
	fmt.Printf("-- %s restarted: it recovers from its WAL and catches up --\n", l.ID())
	revisions()

	var follower *ReplicaServer
	for _, r := range f.replicas {
		if r != f.leader() {
			follower = r
			break
		}
	}
	fmt.Printf("-- %s partitioned; /cfg/5 written --\n", follower.ID())
	for _, r := range f.replicas {
		if r != follower {
			w.Network().Partition(follower.ID(), r.ID())
		}
	}
	put("/cfg/5", "follower-cannot-see-this")
	w.Kernel().RunFor(sim.Second)
	get(follower, "/cfg/5")
	for _, r := range f.replicas {
		if r != follower {
			w.Network().Heal(follower.ID(), r.ID())
		}
	}
	w.Kernel().RunFor(2 * sim.Second)
	fmt.Println("-- healed --")
	get(follower, "/cfg/5")

	// Output:
	// leader: etcd-2
	//   etcd-1: revision 3, 3 keys
	//   etcd-2: revision 3, 3 keys
	//   etcd-3: revision 3, 3 keys
	// -- etcd-2 crashed; new leader: etcd-1 --
	// -- etcd-2 restarted: it recovers from its WAL and catches up --
	//   etcd-1: revision 4, 4 keys
	//   etcd-2: revision 4, 4 keys
	//   etcd-3: revision 4, 4 keys
	// -- etcd-2 partitioned; /cfg/5 written --
	//   etcd-2 serves /cfg/5: false
	// -- healed --
	//   etcd-2 serves /cfg/5: true
}
