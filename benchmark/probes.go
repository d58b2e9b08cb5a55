package main

import (
	"fmt"
	"time"

	"repro/internal/apiserver"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/raftlite"
	"repro/internal/sim"
	"repro/internal/store"
)

// Unit-cost probes: the price of one primitive operation of a substrate
// layer, measured against its public API at a stated size and a fixed
// iteration count (the logic follows bench_micro_test.go, which stays
// untouched). They turn the exact per-execution counts of the traced pass
// into attributed time. Results land in probeSink so the compiler cannot
// discard the measured calls.
//
// The store probes run with history retention unlimited, as every cluster
// infra.New builds does. (bench_micro_test.go's store benchmarks set a
// retain limit of 4096, and past that limit each put costs ~0.4 ms and
// ~620 KB of allocation on the seed commit — see README, first findings.)

var probeSink int

const (
	probeKernelEvents  = 200_000 // no-op events, delays spread over 100 ns
	probeNetSends      = 100_000 // 2 handlers, 1 ms latency, 0.5 ms jitter
	probeStorePuts     = 20_000  // 512 keys, 47-byte values
	probeStoreCAS      = 20_000  // one key
	probeWatchPuts     = 20_000  // 16 watchers on the prefix
	probeWatchers      = 16
	probeRaftProposals = 4_000 // 3 replicas, proposals in bursts of 64
	probeInformerPods  = 2_000 // one apiserver, one informer, bursts of 128
)

type probeResults struct {
	kernelEventNs, netSendNs                 float64
	storePutNs, storeCASNs, watchFanoutNs    float64
	raftCommitNs, informerEventNs            float64
	netSendBeyondKernelNs, watchPerWatcherNs float64
}

func runProbes() (probeResults, error) {
	var r probeResults
	var err error
	r.kernelEventNs = probeKernel()
	r.netSendNs = probeNetSend()
	r.storePutNs = probeStorePut()
	if r.storeCASNs, err = probeStoreCASCost(); err != nil {
		return r, err
	}
	if r.watchFanoutNs, err = probeWatchFanout(); err != nil {
		return r, err
	}
	if r.raftCommitNs, err = probeRaftCommit(); err != nil {
		return r, err
	}
	if r.informerEventNs, err = probeInformer(); err != nil {
		return r, err
	}
	// A network send rides one kernel event; only the rest is the
	// network's own cost. Likewise a fan-out put is a put plus watchers.
	r.netSendBeyondKernelNs = max(r.netSendNs-r.kernelEventNs, 0)
	r.watchPerWatcherNs = max(r.watchFanoutNs-r.storePutNs, 0) / probeWatchers
	return r, nil
}

func perIter(start time.Time, n int) float64 {
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// probeKernel: schedule + fire of a no-op event.
func probeKernel() float64 {
	k := sim.NewKernel(1)
	start := time.Now()
	for i := 0; i < probeKernelEvents; i++ {
		k.Schedule(sim.Duration(i%100), func() { probeSink++ })
		if i%1024 == 0 {
			k.Drain()
		}
	}
	k.Drain()
	return perIter(start, probeKernelEvents)
}

// probeNetSend: Send on one handler to delivery at the other.
func probeNetSend() float64 {
	k := sim.NewKernel(1)
	n := sim.NewNetwork(k, sim.Millisecond, sim.Millisecond/2)
	n.Register("a", sim.HandlerFunc(func(*sim.Message) { probeSink++ }))
	n.Register("b", sim.HandlerFunc(func(*sim.Message) { probeSink++ }))
	start := time.Now()
	for i := 0; i < probeNetSends; i++ {
		n.Send("a", "b", "probe", nil)
		if i%1024 == 0 {
			k.Drain()
		}
	}
	k.Drain()
	return perIter(start, probeNetSends)
}

func probeStorePut() float64 {
	s := store.New()
	val := []byte("some-object-payload-of-plausible-size-for-a-pod")
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = fmt.Sprintf("/registry/pods/p-%d", i)
	}
	start := time.Now()
	for i := 0; i < probeStorePuts; i++ {
		probeSink += int(s.Put(keys[i%len(keys)], val) & 1)
	}
	return perIter(start, probeStorePuts)
}

func probeStoreCASCost() (float64, error) {
	s := store.New()
	rev := s.Put("/lock", []byte("v"))
	start := time.Now()
	for i := 0; i < probeStoreCAS; i++ {
		ok, newRev := s.CompareAndSwap("/lock", rev, []byte("v"))
		if !ok {
			return 0, fmt.Errorf("store probe: CAS failed against the tracked revision")
		}
		rev = newRev
	}
	probeSink += int(rev & 1)
	return perIter(start, probeStoreCAS), nil
}

// probeWatchFanout: one put delivered to probeWatchers prefix watchers.
func probeWatchFanout() (float64, error) {
	s := store.New()
	seen := 0
	for i := 0; i < probeWatchers; i++ {
		if _, err := s.Watch("/registry/", s.Revision(), func(events []history.Event) {
			seen += len(events)
		}); err != nil {
			return 0, fmt.Errorf("store probe: watch: %w", err)
		}
	}
	val := []byte("payload")
	start := time.Now()
	for i := 0; i < probeWatchPuts; i++ {
		s.Put("/registry/pods/p", val)
	}
	d := perIter(start, probeWatchPuts)
	if seen != probeWatchPuts*probeWatchers {
		return 0, fmt.Errorf("store probe: watchers saw %d events, want %d", seen, probeWatchPuts*probeWatchers)
	}
	probeSink += seen
	return d, nil
}

// probeRaftCommit: a proposal on a 3-replica group to its commit.
func probeRaftCommit() (float64, error) {
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond, Jitter: sim.Millisecond / 2})
	replicas := store.NewReplicaGroup(w, 3, raftlite.DefaultConfig())
	w.Kernel().RunFor(2 * sim.Second)
	var leader *store.ReplicaServer
	for _, r := range replicas {
		if r.Raft().Role() == raftlite.Leader {
			leader = r
		}
	}
	if leader == nil {
		return 0, fmt.Errorf("raftlite probe: no leader after 2 s")
	}
	before := leader.Raft().CommitIndex()
	start := time.Now()
	for i := 0; i < probeRaftProposals; i++ {
		if _, ok := leader.Raft().Propose([]byte("command")); !ok {
			return 0, fmt.Errorf("raftlite probe: leader refused proposal %d", i)
		}
		if i%64 == 0 {
			w.Kernel().RunFor(200 * sim.Millisecond)
		}
	}
	w.Kernel().RunFor(2 * sim.Second)
	d := perIter(start, probeRaftProposals)
	if got := leader.Raft().CommitIndex() - before; got < probeRaftProposals {
		return 0, fmt.Errorf("raftlite probe: committed %d of %d", got, probeRaftProposals)
	}
	return d, nil
}

// probeInformer: a pod create through the apiserver to the informer's
// handler (the BenchmarkMicro_InformerEventPipeline shape). This is a
// pipeline cost — it contains kernel events, network sends and a store
// commit — so it is reported but not used for attribution.
func probeInformer() (float64, error) {
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	store.NewServer(w, "etcd", store.New())
	apiserver.New(w, "api-1", apiserver.DefaultConfig("etcd"))
	conn := client.NewConn(w, "comp", "api-1", 300*sim.Millisecond)
	w.Network().Register("comp", sim.HandlerFunc(func(m *sim.Message) { conn.HandleMessage(m) }))
	writer := client.NewConn(w, "writer", "api-1", 300*sim.Millisecond)
	w.Network().Register("writer", sim.HandlerFunc(func(m *sim.Message) { writer.HandleMessage(m) }))
	w.Kernel().RunFor(300 * sim.Millisecond)

	inf := client.NewInformer(conn, cluster.KindPod, client.InformerConfig{})
	events := 0
	inf.AddHandler(client.HandlerFuncs{
		AddFunc:    func(*cluster.Object) { events++ },
		UpdateFunc: func(_, _ *cluster.Object) { events++ },
	})
	inf.Run()
	w.Kernel().RunFor(100 * sim.Millisecond)

	start := time.Now()
	for i := 0; i < probeInformerPods; i++ {
		name := fmt.Sprintf("p-%d", i)
		writer.Create(cluster.NewPod(name, name, cluster.PodSpec{NodeName: "k1"}), nil)
		if i%128 == 0 {
			w.Kernel().RunFor(500 * sim.Millisecond)
		}
	}
	w.Kernel().RunFor(2 * sim.Second)
	d := perIter(start, probeInformerPods)
	if events < probeInformerPods {
		return 0, fmt.Errorf("client probe: informer handled %d of %d events", events, probeInformerPods)
	}
	probeSink += events
	return d, nil
}
