// Substrate micro-benchmarks: raw throughput of the simulation kernel, the
// MVCC store, the replicated store, and the informer pipeline. These are
// not paper experiments (see bench_test.go for E1–E8); they exist to keep
// the simulator fast enough that campaigns of hundreds of executions stay
// cheap, and to catch performance regressions in the substrates.
package partialhist

import (
	"fmt"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/baselines"
	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/explain"
	"repro/internal/history"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/raftlite"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

func BenchmarkMicro_KernelScheduleAndRun(b *testing.B) {
	b.Run("closure", func(b *testing.B) {
		k := sim.NewKernel(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k.Schedule(sim.Duration(i%100), func() {})
			if i%1024 == 0 {
				k.Drain()
			}
		}
		k.Drain()
	})
	// A component timer: armed through its owner, the event is its tag.
	b.Run("owner", func(b *testing.B) {
		k := sim.NewKernel(1)
		o := k.Own("kubelet-k1", func(sim.EventTag) {})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			o.After(sim.Duration(i%100), sim.EventTag{Kind: "sync", Epoch: uint64(i)})
			if i%1024 == 0 {
				k.Drain()
			}
		}
		k.Drain()
	})
}

// BenchmarkMicro_NetSendDeliver is one message end to end: Send (link
// lookup, latency draw, FIFO frontier, delivery event) and its delivery to a
// handler that does nothing.
func BenchmarkMicro_NetSendDeliver(b *testing.B) {
	k := sim.NewKernel(1)
	n := sim.NewNetwork(k, sim.Millisecond, sim.Millisecond/2)
	delivered := 0
	n.Register("b", sim.HandlerFunc(func(*sim.Message) { delivered++ }))
	payload := &struct{}{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send("a", "b", "rpc", payload)
		if i%64 == 0 {
			k.Drain()
		}
	}
	k.Drain()
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}

// BenchmarkMicro_RPCRoundTrip is one call with a timeout armed, answered by
// a handler that allocates nothing: two messages, one canceled timer.
func BenchmarkMicro_RPCRoundTrip(b *testing.B) {
	k := sim.NewKernel(1)
	n := sim.NewNetwork(k, sim.Millisecond, sim.Millisecond/2)
	client := sim.NewRPCClient(n, "client", 100*sim.Millisecond)
	server := sim.NewRPCServer(n)
	echo := sim.NewMethod("echo")
	n.Register("client", sim.HandlerFunc(func(m *sim.Message) { client.HandleResponse(m) }))
	n.Register("server", sim.HandlerFunc(func(m *sim.Message) { server.HandleRequest(m) }))
	server.Handle(echo, func(_ sim.NodeID, body any) (any, error) { return body, nil })
	body := &struct{}{}
	answered := 0
	cb := func(_ any, err error) {
		if err == nil {
			answered++
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		client.Call("server", echo, body, cb)
		if i%16 == 0 {
			k.Drain()
		}
	}
	k.Drain()
	if answered != b.N {
		b.Fatalf("answered %d of %d", answered, b.N)
	}
}

func BenchmarkMicro_StorePut(b *testing.B) {
	s := store.New()
	val := []byte("some-object-payload-of-plausible-size-for-a-pod")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(fmt.Sprintf("/registry/pods/p-%d", i%512), val)
	}
}

func BenchmarkMicro_StoreCAS(b *testing.B) {
	s := store.New()
	rev := s.Put("/lock", []byte("v"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, newRev := s.CompareAndSwap("/lock", rev, []byte("v"))
		if !ok {
			b.Fatal("CAS failed against the tracked revision")
		}
		rev = newRev
	}
}

func BenchmarkMicro_StoreWatchFanout(b *testing.B) {
	s := store.New()
	sink := 0
	for i := 0; i < 16; i++ {
		if _, err := s.Watch("/registry/", s.Revision(), func(events []history.Event) {
			sink += len(events)
		}); err != nil {
			b.Fatal(err)
		}
	}
	val := []byte("payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put("/registry/pods/p", val)
	}
	if sink == 0 {
		b.Fatal("watchers saw nothing")
	}
}

func BenchmarkMicro_ReplicatedStoreCommit(b *testing.B) {
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
		b.Fatal("no leader")
	}
	before := leader.Raft().CommitIndex()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := leader.Raft().Propose([]byte("command")); !ok {
			b.Fatal("leader refused proposal")
		}
		if i%64 == 0 {
			w.Kernel().RunFor(200 * sim.Millisecond)
		}
	}
	w.Kernel().RunFor(2 * sim.Second)
	if leader.Raft().CommitIndex()-before < uint64(b.N) {
		b.Fatalf("committed %d of %d", leader.Raft().CommitIndex()-before, b.N)
	}
}

// BenchmarkMicro_CampaignOverhead guards the campaign engine's scheduling
// cost: "bare" measures one plan execution with no pool around it, and the
// "pool-N" variants measure a full campaign through internal/campaign
// normalized per execution (ns/exec metric). The gap between bare ns/op
// and pool ns/exec is the engine's per-execution overhead — future PRs
// must not let it grow into the same order as an execution itself.
// CrashTuner never detects 56261, so every plan in the list always runs
// and the campaign size is stable across runs.
func BenchmarkMicro_CampaignOverhead(b *testing.B) {
	target := workload.Target56261()
	strategy := baselines.CrashTuner{}
	ref, _ := core.ReferenceSeed(target, 1)
	plans := strategy.Plans(target, ref)
	if len(plans) == 0 {
		b.Fatal("crashtuner generated no plans")
	}

	b.Run("bare", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if core.RunPlanSeed(target, plans[i%len(plans)], 1).Detected {
				b.Fatal("crashtuner unexpectedly detected 56261")
			}
		}
	})
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("pool-%d", workers), func(b *testing.B) {
			eng := campaign.New(campaign.Config{Workers: workers, KeepGoing: true})
			execs := 0
			for i := 0; i < b.N; i++ {
				res := eng.Run(target, strategy)
				if res.Detected {
					b.Fatal("crashtuner unexpectedly detected 56261")
				}
				execs += res.Stats.RawExecutions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(execs), "ns/exec")
		})
	}
}

// BenchmarkMicro_ExplainPass bounds the cost of the -explain layer: the
// per-bucket price of seed-correct minimization plus trace-diff causal
// explanation. Buckets are few (≤ a dozen per campaign), so a handful of
// extra executions per bucket must stay negligible against the campaign's
// hundreds of plan executions.
func BenchmarkMicro_ExplainPass(b *testing.B) {
	target := workload.Target56261()
	ref, _ := core.ReferenceSeed(target, 1)
	var detecting core.Plan
	for _, p := range core.NewPlanner().Plans(target, ref) {
		if core.RunPlanSeed(target, p, 1).Detected {
			detecting = p
			break
		}
	}
	if detecting == nil {
		b.Fatal("planner found no detecting plan for 56261")
	}

	b.Run("minimize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, execs := core.MinimizeSeedRun(target, detecting, 1, core.RunPlanSeed); execs == 0 {
				b.Fatal("no minimization executions recorded")
			}
		}
	})
	b.Run("explain", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if e := explain.Explain(target, detecting, 1); len(e.Chain) == 0 {
				b.Fatal("empty explanation chain")
			}
		}
	})
}

// BenchmarkMicro_LearnPass bounds the cost of the learning phase: mining
// read-dependency profiles from the reference trace plus building the
// pruned+ranked schedule over the full planner output. The whole pass runs
// once per campaign seed, so it must stay well under the cost of a single
// plan execution (~6 ms on the seeded targets) — otherwise pruning could
// not pay for itself even in principle.
func BenchmarkMicro_LearnPass(b *testing.B) {
	target := workload.Target56261()
	ref, _ := core.ReferenceSeed(target, 1)
	plans := core.NewPlanner().Plans(target, ref)
	if len(plans) == 0 {
		b.Fatal("planner generated no plans")
	}

	b.Run("mine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if m := learn.Mine(ref, 0); m.ConsumedCount() == 0 {
				b.Fatal("mining attributed no consumed deliveries")
			}
		}
	})
	b.Run("schedule", func(b *testing.B) {
		model := learn.Mine(ref, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := learn.BuildSchedule(model, target, plans, learn.Options{Prune: true, Rank: true})
			if s.Stats.Pruned == 0 {
				b.Fatal("schedule pruned nothing on a prunable target")
			}
		}
	})
	b.Run("full", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			model := learn.Mine(ref, 0)
			s := learn.BuildSchedule(model, target, plans, learn.Options{Prune: true, Rank: true})
			if len(s.Kept) == 0 {
				b.Fatal("schedule kept nothing")
			}
		}
	})
}

func BenchmarkMicro_InformerEventPipeline(b *testing.B) {
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

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("p-%d", i)
		writer.Create(cluster.NewPod(name, name, cluster.PodSpec{NodeName: "k1"}), nil)
		if i%128 == 0 {
			w.Kernel().RunFor(500 * sim.Millisecond)
		}
	}
	w.Kernel().RunFor(2 * sim.Second)
	b.StopTimer()
	if events == 0 {
		b.Fatal("informer processed nothing")
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}

// BenchmarkMicro_KubeletSyncAtScale is one sync period of a 50-node
// world: every kubelet reads the pods bound to its node from its pod cache
// and keeps the live ones (Kubelet.syncPods → reconcile). All 50 caches are
// fed by one apiserver, so they hold the same 50 pod objects.
func BenchmarkMicro_KubeletSyncAtScale(b *testing.B) {
	const nodes = 50
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	store.NewServer(w, "etcd", store.New())
	apiserver.New(w, "api-1", apiserver.DefaultConfig("etcd"))
	writer := client.NewConn(w, "writer", "api-1", 300*sim.Millisecond)
	w.Network().Register("writer", sim.HandlerFunc(func(m *sim.Message) { writer.HandleMessage(m) }))
	w.Kernel().RunFor(300 * sim.Millisecond)

	nodeName := func(i int) string { return fmt.Sprintf("node-%02d", i) }
	infs := make([]*client.Informer, nodes)
	for i := range infs {
		id := sim.NodeID("kubelet-" + nodeName(i))
		conn := client.NewConn(w, id, "api-1", 300*sim.Millisecond)
		w.Network().Register(id, sim.HandlerFunc(func(m *sim.Message) { conn.HandleMessage(m) }))
		infs[i] = client.NewInformer(conn, cluster.KindPod, client.InformerConfig{})
		infs[i].Run()
	}
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("pod-%02d", i)
		writer.Create(cluster.NewPod(name, name, cluster.PodSpec{NodeName: nodeName(i), Phase: cluster.PodRunning}), nil)
	}
	w.Kernel().RunFor(sim.Second)

	b.ReportAllocs()
	b.ResetTimer()
	mine := 0
	for i := 0; i < b.N; i++ {
		for n, inf := range infs {
			node := nodeName(n)
			for _, p := range inf.ListOnNode(node) {
				if !p.Terminating() {
					mine++
				}
			}
		}
	}
	b.StopTimer()
	if mine != b.N*nodes {
		b.Fatalf("kubelets found %d pods of their own over %d sync periods, want %d", mine, b.N, b.N*nodes)
	}
}

// BenchmarkMicro_ObjectCodec is one cluster.Decode / cluster.Encode of the
// three object shapes the simulator commits most: a bound running pod, a
// topology-labelled node carrying a heartbeat label, and a cassandra CR
// with a ready-member list. Every committed revision is encoded once and
// decoded by each apiserver and by the oracles.
func BenchmarkMicro_ObjectCodec(b *testing.B) {
	pod := cluster.NewPod("web-7", "uid-0042", cluster.PodSpec{NodeName: "node-r03-2", Phase: cluster.PodRunning, Image: "v2", App: "web"})
	pod.Meta.OwnerUID = "uid-0007"
	node := cluster.NewNode("node-r03-2", "uid-0013", cluster.NodeSpec{Ready: true, Capacity: 8, Rack: "rack-03", Zone: "zone-1", DC: "dc-1"})
	node.Meta.Labels = cluster.Labels{{Name: "heartbeat", Value: "1234000000"}}
	cass := cluster.NewCassandra("cass", "uid-0001", cluster.CassandraSpec{
		Replicas: 3, ReadyMembers: []string{"cass-0", "cass-1", "cass-2", "cass-3"}, Decommissioning: "cass-3"})
	for _, tc := range []struct {
		name string
		obj  *cluster.Object
	}{{"pod", pod}, {"node", node}, {"cassandra", cass}} {
		data := cluster.MustEncode(tc.obj)
		b.Run("decode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := cluster.Decode(data, int64(i))
				if err != nil || got.Meta.Name != tc.obj.Meta.Name {
					b.Fatalf("decode = %v, %v", got, err)
				}
			}
		})
		b.Run("encode/"+tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got, err := cluster.Encode(tc.obj)
				if err != nil || len(got) != len(data) {
					b.Fatalf("encode = %q, %v", got, err)
				}
			}
		})
	}
}

// BenchmarkMicro_OracleTick is one 10 ms tick of the oracle runner over the
// three store-reading oracles of an operator world — SchedulerProgress,
// NoOrphanPVC, ScaleDownCompletes, registered with the dependencies
// infra.addOracles declares — on a settled 3-node, 3-member cluster: with
// nothing committed since the previous tick (the case ~19 ticks in 20 are),
// after a node heartbeat (the case ~9 commits in 10 are), and after a pod
// commit. The last two time the commit together with the tick — stopping
// the timer around it costs a stop-the-world per iteration and leaves the
// tick a cold cache — so commit-alone is the figure to subtract.
func BenchmarkMicro_OracleTick(b *testing.B) {
	st := store.New()
	put := func(o *cluster.Object) { st.Put(cluster.Key(o.Meta.Kind, o.Meta.Name), cluster.MustEncode(o)) }
	var node, pod *cluster.Object
	for i := 0; i < 3; i++ {
		node = cluster.NewNode(fmt.Sprintf("k%d", i+1), fmt.Sprintf("uid-n%d", i), cluster.NodeSpec{Ready: true, Capacity: 16})
		node.Meta.Labels = cluster.Labels{{Name: "heartbeat", Value: "1234000000"}}
		put(node)
		member := fmt.Sprintf("cass-%d", i)
		pod = cluster.NewPod(member, "uid-p"+member, cluster.PodSpec{NodeName: node.Meta.Name, Phase: cluster.PodRunning, App: "cass"})
		put(pod)
		put(cluster.NewPVC(member+"-data", "uid-v"+member, cluster.PVCSpec{OwnerPod: member, Phase: cluster.PVCBound}))
	}
	put(cluster.NewCassandra("cass", "uid-cr", cluster.CassandraSpec{Replicas: 3, ReadyMembers: []string{"cass-0", "cass-1", "cass-2"}}))
	kind := func(k cluster.Kind) *sim.Generation { return st.Track(cluster.KindPrefix(k)).Generation() }
	pods, nodes, pvcs := kind(cluster.KindPod), kind(cluster.KindNode), kind(cluster.KindPVC)
	const patience = 2 * sim.Second
	r := oracle.NewRunner()
	r.Add(oracle.SchedulerProgress(r, st, patience), pods, nodes)
	r.Add(oracle.NoOrphanPVC(r, st, patience), pods, pvcs)
	r.Add(oracle.ScaleDownCompletes(r, st, "cass", patience), kind(cluster.KindCassandra), pods)
	now := sim.Time(0)
	tick := func() { now = now.Add(10 * sim.Millisecond); r.CheckNow(now) }
	for now < sim.Time(2*patience) { // past every wait
		tick()
	}
	nothing := func() {}
	for _, tc := range []struct {
		name         string
		commit, tick func()
	}{
		{"idle", nothing, tick},
		{"heartbeat", func() { put(node) }, tick},
		{"pod-commit", func() { put(pod) }, tick},
		{"commit-alone", func() { put(node) }, nothing},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%1024 == 0 {
					st.CompactTo(st.Revision()) // the commits' history, not the benchmark's subject
				}
				tc.commit()
				tc.tick()
			}
			if vs := r.Violations(); len(vs) != 0 {
				b.Fatalf("settled cluster violated: %v", vs)
			}
		})
	}
}
