package kubelet

import (
	"testing"

	"repro/internal/apiserver"
	"repro/internal/sim"
	"repro/internal/store"
)

// One heartbeat — Get from the kubelet's apiserver, Update through it, the
// store's Txn, the watch push to both apiservers and their apply — allocates
// a fixed, small number of objects: the kubelet copies the node's header and
// labels, the store keeps the encoder's bytes and pushes one batch to both
// subscribers, and the committed revision is the kubelet's object on one
// stamped copy, shared by both apiservers and decoded by neither. Every periodic timer is pushed out of the way so
// the measured step range holds the heartbeat and nothing else.
func TestHeartbeatRoundTripAllocations(t *testing.T) {
	const hour = 3600 * sim.Second
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	st := store.NewServer(w, "etcd", store.New())
	decodes := apiserver.NewDecodes()
	var apis []*apiserver.Server
	for _, id := range []sim.NodeID{"api-1", "api-2"} {
		cfg := apiserver.DefaultConfig("etcd")
		cfg.ResyncInterval = hour
		api := apiserver.New(w, id, cfg)
		api.ShareDecodes(decodes)
		apis = append(apis, api)
	}
	cfg := DefaultConfig("k1", []sim.NodeID{"api-1", "api-2"})
	cfg.SyncInterval, cfg.HeartbeatInterval = hour, hour
	k := New(w, NewHost("k1"), cfg)
	w.Kernel().RunFor(sim.Second)

	beat := func() {
		rev := st.Store().Revision()
		k.heartbeat()
		for apis[0].CachedRevision() <= rev || apis[1].CachedRevision() <= rev {
			if !w.Kernel().Step() {
				t.Fatal("the heartbeat never reached both apiservers")
			}
		}
	}
	for i := 0; i < 16; i++ { // warm: maps, slabs, link records
		beat()
	}
	// 54 before the apiservers shared one decode per cluster, Update stopped
	// cloning its argument, the store stopped copying the value twice and
	// cloning the batch per subscriber, and the label stopped being boxed;
	// 37 before the committed revision became the writer's object, the
	// heartbeat stopped cloning the node and binding its callback, the
	// store took the encoder's buffer over and arena-allocated its batch
	// and pushes, the transaction became one allocation and a cached Get
	// stopped building its key; 21 before the label set became a slice
	// and the Get, the Update and the apiserver's write stopped allocating
	// a closure for their continuations; 17 before the RPC envelope rode
	// in the message and the network reused its messages, the write reply
	// became part of the write's record and the Get and transaction
	// replies were arena-allocated. Now: the Get request; the node's copy,
	// its label set and label; the Update request; the encoded bytes; the
	// write's record; the revision's object.
	const want = 8
	allocs := testing.AllocsPerRun(200, beat)
	t.Logf("a heartbeat round trip allocates %v", allocs)
	if allocs > want {
		t.Fatalf("a heartbeat round trip allocates %v, want <= %d", allocs, want)
	}
}
