package trace

import (
	"testing"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/store"
)

func push(r *Recorder, from, to sim.NodeID, seq uint64, typ apiserver.EventType, kind cluster.Kind, name string, rev int64, terminating bool) {
	obj := &cluster.Object{Meta: cluster.Meta{Kind: kind, Name: name, ResourceVersion: rev}}
	if terminating {
		obj.Meta.DeletionTimestamp = 1
	}
	r.OnDeliver(&sim.Message{
		Seq:     seq,
		From:    from,
		To:      to,
		Kind:    apiserver.KindWatchPush,
		Payload: &apiserver.WatchPushMsg{Events: []apiserver.WatchEvent{{Type: typ, Object: obj, Revision: rev}}},
	})
}

func TestRecorderDeliveriesAndOccurrences(t *testing.T) {
	r := NewRecorder()
	push(r, "api-1", "scheduler", 1, apiserver.Added, cluster.KindPod, "p1", 5, false)
	push(r, "api-1", "scheduler", 2, apiserver.Modified, cluster.KindPod, "p1", 6, false)
	push(r, "api-1", "scheduler", 3, apiserver.Modified, cluster.KindPod, "p1", 7, true)
	push(r, "api-1", "kubelet-k1", 4, apiserver.Modified, cluster.KindPod, "p1", 7, true)

	ds := r.T.DeliveriesTo("scheduler")
	if len(ds) != 3 {
		t.Fatalf("deliveries = %d", len(ds))
	}
	// Occurrence counts are per (to, kind, name, type).
	if ds[1].Occurrence != 1 || ds[2].Occurrence != 2 {
		t.Fatalf("occurrences = %d %d", ds[1].Occurrence, ds[2].Occurrence)
	}
	if !ds[2].Terminating || ds[1].Terminating {
		t.Fatalf("terminating flags = %v %v", ds[1].Terminating, ds[2].Terminating)
	}
	// A different victim has its own occurrence counter.
	kd := r.T.DeliveriesTo("kubelet-k1")
	if len(kd) != 1 || kd[0].Occurrence != 1 {
		t.Fatalf("kubelet deliveries = %+v", kd)
	}
	// Deliveries imply subscriptions.
	if !r.T.Subscriptions["scheduler"][cluster.KindPod] {
		t.Fatal("subscription not derived from delivery")
	}
	comps := r.T.Components()
	if len(comps) != 2 || comps[0] != "api-1" && comps[0] != "kubelet-k1" {
		t.Fatalf("components = %v", comps)
	}
}

func TestRecorderWritesAndActedOn(t *testing.T) {
	r := NewRecorder()
	r.OnSend(&sim.Message{
		From: "operator", To: "api-1", SentAt: 10,
		Method: apiserver.MethodUpdate,
		Payload: &apiserver.UpdateRequest{
			Object: cluster.NewPod("cass-1", "u", cluster.PodSpec{}),
		},
	})
	r.OnSend(&sim.Message{
		From: "operator", To: "api-1", SentAt: 11,
		Method: apiserver.MethodDelete,
		Payload: &apiserver.DeleteRequest{
			Kind: cluster.KindPVC, Name: "cass-1-data",
		},
	})
	r.OnSend(&sim.Message{
		From: "admin", To: "api-1", SentAt: 12,
		Method: apiserver.MethodCreate,
		Payload: &apiserver.CreateRequest{
			Object: cluster.NewCassandra("cass", "u", cluster.CassandraSpec{Replicas: 2}),
		},
	})
	if len(r.T.Writes) != 3 {
		t.Fatalf("writes = %d", len(r.T.Writes))
	}
	if !r.T.ActedOn("operator", cluster.KindPod, "cass-1") {
		t.Fatal("ActedOn(pod) = false")
	}
	if !r.T.ActedOn("operator", cluster.KindPVC, "cass-1-data") {
		t.Fatal("ActedOn(pvc) = false")
	}
	if r.T.ActedOn("operator", cluster.KindCassandra, "cass") {
		t.Fatal("operator credited with the admin's write")
	}
}

func TestRecorderSubscriptionsFromWatchRequests(t *testing.T) {
	r := NewRecorder()
	r.OnSend(&sim.Message{
		From: "scheduler", To: "api-1",
		Method: apiserver.MethodWatch,
		Payload: &apiserver.WatchRequest{
			Kind: cluster.KindNode, SubID: 1,
		},
	})
	if !r.T.Subscriptions["scheduler"][cluster.KindNode] {
		t.Fatal("watch request not recorded as subscription")
	}
}

func TestRecorderCommitHook(t *testing.T) {
	w := sim.NewWorld(sim.WorldConfig{Seed: 1, Latency: sim.Millisecond})
	st := store.New()
	r := NewRecorder()
	r.Attach(w.Network(), st)
	st.Put("/a", []byte("1"))
	st.Put("/b", []byte("2"))
	if len(r.T.Commits) != 2 {
		t.Fatalf("commits = %d", len(r.T.Commits))
	}
	if r.T.Commits[0].Type != history.Put || r.T.Commits[0].Key != "/a" {
		t.Fatalf("commit 0 = %+v", r.T.Commits[0])
	}
}

func TestCommitTimesSortedDistinct(t *testing.T) {
	tr := New()
	tr.Commits = []history.Event{
		{Revision: 1, Time: 30}, {Revision: 2, Time: 10}, {Revision: 3, Time: 30},
	}
	times := tr.CommitTimes()
	if len(times) != 2 || times[0] != 10 || times[1] != 30 {
		t.Fatalf("times = %v", times)
	}
}
