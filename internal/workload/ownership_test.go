package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/infra"
	"repro/internal/sim"
)

// mutatedSharedObjects checks the ownership rule (DESIGN.md, "Object
// ownership") after the fact: every object an apiserver or an informer
// cache still shares must encode to exactly the bytes the store committed
// for its key at its ResourceVersion. Anything else was changed in place
// by someone who should have cloned it first. The same holds for writes: a
// Create or Update request's object was handed over by its caller, and the
// reply's object shares its labels and payload with the request it
// answered. Every object an apiserver memoizes and every reply's object
// must besides be the decode of those bytes, field for field: a shared
// revision is its writer's object only where the two cannot differ. The
// slice ListCached hands out is the informer's own: it must still be its
// cache in name order, or a caller sorted it or wrote into it. It returns
// one line per offending holder.
func mutatedSharedObjects(c *infra.Cluster, writes *writes) []string {
	hist := c.Store.Store().History()
	var bad []string
	check := func(holder string, obj *cluster.Object) {
		ev, ok := hist.Find(obj.Meta.ResourceVersion)
		switch {
		case !ok || ev.Type != history.Put:
			bad = append(bad, fmt.Sprintf("%s holds %s: the store has no put at that revision", holder, obj))
		case ev.Key != cluster.Key(obj.Meta.Kind, obj.Meta.Name):
			bad = append(bad, fmt.Sprintf("%s holds %s: revision %d wrote %s", holder, obj, ev.Revision, ev.Key))
		case !bytes.Equal(cluster.MustEncode(obj), ev.Value):
			bad = append(bad, fmt.Sprintf("%s holds %s mutated in place:\n  now    %s\n  stored %s",
				holder, obj, cluster.MustEncode(obj), ev.Value))
		}
	}
	// decodes checks what a revision's object must be besides its bytes:
	// the committed value's decode, field for field. A writer's object that
	// encodes right and decodes differently (an empty label set, a string
	// the codec escapes) fails here and nowhere else.
	decodes := func(holder string, obj *cluster.Object) {
		ev, ok := hist.Find(obj.Meta.ResourceVersion)
		if !ok || ev.Type != history.Put {
			return // check reports it
		}
		if want, err := cluster.Decode(ev.Value, ev.Revision); err != nil || !reflect.DeepEqual(obj, want) {
			bad = append(bad, fmt.Sprintf("%s holds %s, not the decode of its committed bytes:\n  holds   %+v\n  decoded %+v (%v)",
				holder, obj, *obj, want, err))
		}
	}
	for _, api := range c.APIs {
		for _, obj := range api.Memoized() {
			check(string(api.ID())+" memo", obj)
			decodes(string(api.ID())+" memo", obj)
		}
	}
	for _, conn := range c.Conns() {
		for _, inf := range conn.Informers() {
			holder := fmt.Sprintf("%s informer %d", conn.Self(), inf.SubID())
			order := inf.ListCached()
			for k, obj := range order {
				check(holder, obj)
				if cached, _ := inf.Get(obj.Meta.Name); cached != obj || k > 0 && order[k-1].Meta.Name >= obj.Meta.Name {
					bad = append(bad, fmt.Sprintf("%s order is not its cache in name order: %s at %d of %v", holder, obj, k, order))
					break
				}
			}
			if len(order) != inf.Len() {
				bad = append(bad, fmt.Sprintf("%s order holds %d objects, its cache %d", holder, len(order), inf.Len()))
			}
		}
	}
	for _, r := range writes.requests {
		if r.rev == 0 {
			continue // never committed
		}
		// Encode leaves ResourceVersion out: the request at the revision
		// it committed must encode to the committed bytes.
		o := *r.obj
		o.Meta.ResourceVersion = r.rev
		check(fmt.Sprintf("%s %s request to %s", r.from, r.method, r.to), &o)
	}
	for _, r := range writes.replies {
		check(fmt.Sprintf("%s write reply to %s", r.from, r.to), r.obj)
		decodes(fmt.Sprintf("%s write reply to %s", r.from, r.to), r.obj)
	}
	return bad
}

// writes is a network observer collecting the object of every Create and
// Update request a component sends, with the revision it committed at, and
// of every reply an apiserver sends to one.
type writes struct {
	requests []writeRequest
	bySeq    map[uint64]int // request message Seq -> index in requests
	replies  []writeReply
}

type writeRequest struct {
	from, to sim.NodeID
	method   string
	obj      *cluster.Object
	rev      int64 // the committed revision; 0 until a reply reports one
}

type writeReply struct {
	from, to sim.NodeID
	obj      *cluster.Object
}

func (w *writes) OnSend(m *sim.Message) {
	if m.Method == nil {
		return // not an RPC
	}
	if m.Call == 0 {
		var obj *cluster.Object
		switch body := m.Payload.(type) {
		case *apiserver.CreateRequest:
			obj = body.Object
		case *apiserver.UpdateRequest:
			obj = body.Object
		default:
			return
		}
		if w.bySeq == nil {
			w.bySeq = make(map[uint64]int)
		}
		w.bySeq[m.Seq] = len(w.requests)
		w.requests = append(w.requests, writeRequest{from: m.From, to: m.To, method: m.Method.Name, obj: obj})
		return
	}
	wr, ok := m.Payload.(*apiserver.WriteResponse)
	if !ok || wr.Object == nil {
		return
	}
	w.replies = append(w.replies, writeReply{from: m.From, to: m.To, obj: wr.Object})
	if i, ok := w.bySeq[m.Call]; ok {
		w.requests[i].rev = wr.Object.Meta.ResourceVersion
	}
}
func (w *writes) OnDeliver(*sim.Message)      {}
func (w *writes) OnDrop(*sim.Message, string) {}

// TestSharedObjectsNeverMutated runs every target — the five committed
// ones and both scale targets on the benchmark's 50-node worlds — through
// its reference execution and its first planner plans, and requires that
// no component changed an object it shares with the apiserver memo, the
// informer caches and the other handlers, one it handed over in a write
// request, or one a write reply handed it.
func TestSharedObjectsNeverMutated(t *testing.T) {
	const plansPerTarget = 8
	scale := ScaleProfile{Racks: 10, NodesPerRack: 5}
	targets := append(AllTargets(), ScaleRackDrainTarget(scale), ScaleReplaceTarget(scale))
	for _, target := range targets {
		t.Run(target.Name, func(t *testing.T) {
			ref, _ := core.ReferenceSeed(target, 1)
			plans := core.NewPlanner().Plans(target, ref)
			if len(plans) > plansPerTarget {
				plans = plans[:plansPerTarget]
			}
			held, requested, replied := 0, 0, 0
			for _, p := range append([]core.Plan{core.NopPlan{}}, plans...) {
				c := target.Build(1)
				var writes writes
				c.World.Network().AddObserver(&writes)
				p.Apply(c)
				target.Workload(c)
				c.RunFor(target.Horizon)
				for _, line := range mutatedSharedObjects(c, &writes) {
					t.Errorf("plan %q: %s", p.Describe(), line)
				}
				for _, api := range c.APIs {
					held += len(api.Memoized())
				}
				for _, r := range writes.requests {
					if r.rev != 0 {
						requested++
					}
				}
				replied += len(writes.replies)
			}
			if held == 0 || requested == 0 || replied == 0 {
				t.Fatalf("apiservers shared %d objects, committed %d write requests and sent %d write replies; the check is vacuous",
					held, requested, replied)
			}
		})
	}
}

// TestMutatingHandlerTripsOwnershipCheck is the detector's own test: one
// handler that edits what it is handed is reported, by holder — for its
// own cache, for the apiserver memo the object came from, and for another
// component's cache fed by the same object — and so are a caller that edits
// the object its write reply carried, one that edits the object it handed
// to Update, and one that reorders the slice ListCached handed it.
func TestMutatingHandlerTripsOwnershipCheck(t *testing.T) {
	target := Target59848()
	c := target.Build(1)
	inf := client.NewInformer(c.Admin.Conn(), cluster.KindPod, client.InformerConfig{})
	// The bug: no Clone. The edit accumulates because an idempotent one
	// hides itself: the kubelet clones the edited pod, writes it back, and
	// from then on the store agrees with the edit.
	edit := func(pod *cluster.Object) { pod.Pod.Image += "+edited-in-place" }
	inf.AddHandler(client.HandlerFuncs{
		AddFunc:    edit,
		UpdateFunc: func(_, pod *cluster.Object) { edit(pod) },
	})
	inf.Run()
	// The other bug: a caller that sorts the slice ListCached handed it —
	// the informer's own order — by anything but name.
	sorter := client.NewInformer(c.Admin.Conn(), cluster.KindNode, client.InformerConfig{})
	sorter.AddHandler(client.HandlerFuncs{
		UpdateFunc: func(_, _ *cluster.Object) { slices.Reverse(sorter.ListCached()) },
	})
	sorter.Run()
	var writes writes
	c.World.Network().AddObserver(&writes)
	conn := c.Admin.Conn()
	conn.Create(cluster.NewPVC("scratch", "uid-scratch", cluster.PVCSpec{SizeGB: 1}),
		func(reply *cluster.Object, err error) {
			if err != nil {
				t.Errorf("create: %v", err)
				return
			}
			upd := reply.Clone()
			upd.PVC.SizeGB = 3
			conn.Update(upd, func(_ *cluster.Object, err error) {
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
				// The Update took upd over. Meta is copied, not shared,
				// into the reply, so only the request sees this edit.
				upd.Meta.DeletionTimestamp = 1
			})
			reply.PVC.SizeGB = 2
		})
	target.Workload(c)
	c.RunFor(target.Horizon)
	if inf.Len() == 0 {
		t.Fatal("the mutating informer saw no pods")
	}
	report := strings.Join(mutatedSharedObjects(c, &writes), "\n")
	for _, holder := range []string{
		fmt.Sprintf("%s write reply to %s holds", conn.APIServer(), conn.Self()),
		fmt.Sprintf("%s %s request to %s holds", conn.Self(), apiserver.MethodUpdate.Name, conn.APIServer()),
		fmt.Sprintf("%s informer %d holds", conn.Self(), inf.SubID()),
		fmt.Sprintf("%s informer %d order is not its cache", conn.Self(), sorter.SubID()),
		fmt.Sprintf("%s memo holds", conn.APIServer()),
		"kubelet-",
	} {
		if !strings.Contains(report, holder) {
			t.Errorf("in-place edit not reported for %q; report:\n%s", holder, report)
		}
	}
	if !strings.Contains(report, "edited-in-place") {
		t.Errorf("report does not show the edit:\n%s", report)
	}
}

// TestCanonicalWritesAreNeverDecoded runs every target's reference
// execution — the five committed ones and both scale targets on the
// benchmark's 50-node worlds — and requires that no apiserver's applyOne
// decoded a committed revision: every write goes through an apiserver, its
// objects are exact (cluster.EncodeExact), so each revision is served as
// the object its writer encoded. A write whose object stopped being exact,
// or a memo that stopped matching writes to commits, shows here as a
// count, by target and apiserver.
func TestCanonicalWritesAreNeverDecoded(t *testing.T) {
	scale := ScaleProfile{Racks: 10, NodesPerRack: 5}
	for _, target := range append(AllTargets(), ScaleRackDrainTarget(scale), ScaleReplaceTarget(scale)) {
		c := target.Build(1)
		target.Workload(c)
		c.RunFor(target.Horizon)
		commits := c.Store.Store().Revision()
		for _, api := range c.APIs {
			if n := api.Stats().ApplyDecodes; n != 0 {
				t.Errorf("%s: %s decoded %d of %d committed revisions", target.Name, api.ID(), n, commits)
			}
		}
		t.Logf("%s: %d committed revisions", target.Name, commits)
		if commits == 0 {
			t.Errorf("%s committed nothing; the check is vacuous", target.Name)
		}
	}
}
