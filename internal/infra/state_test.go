package infra_test

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apiserver"
	"repro/internal/client"
	"repro/internal/controller"
	"repro/internal/controllers"
	"repro/internal/core"
	"repro/internal/infra"
	"repro/internal/kubelet"
	"repro/internal/operators/cassandra"
	"repro/internal/oracle"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/workload"
)

// role says what every field of one component type is (DESIGN.md §7,
// "Component snapshot contracts"): the one field that is its state, the
// fields that hold children with snapshots of their own, and wiring — every
// other field, each with the reason it is not state. A field on none of the
// three fails TestEveryFieldIsStateOrWiring, so adding one is a decision
// someone wrote down.
type role struct {
	// state is the state field (an embedded state struct goes by its type's
	// name) and carried the snapshot field that carries it; carried is ""
	// when the snapshot is the state.
	state, carried string
	// children maps a field holding one child, or a map or slice of them, to
	// the snapshot field that carries theirs; "." when the child's snapshot
	// fields lie in this same snapshot. A timer owner is a child too: it
	// lives for one boot, and what the snapshot carries of it is whether that
	// boot is over — a queue's stopped, or, for a connection, its Self, whose
	// down flag the network snapshot carries. A process's own owner is the
	// world's (sim.World.Join), and wiring here.
	children map[string]string
	wiring   map[string]string
}

const (
	fixed  = "fixed at construction"
	config = "configuration: the snapshot's Cfg, or rebuilt from it"
	found  = "stored by the shell at every boot and restore: found again in the restored connection by kind"
	joined = "the world's: registered by Join, retired by Crash, replaced by Restart"
	// An RPC client holds calls in flight and nothing else, and a capture is
	// only taken with none: a call is named by its request message.
	inFlight = "empty at every capture"
)

var roles = map[reflect.Type]role{
	reflect.TypeFor[infra.Cluster](): {
		children: map[string]string{"Store": "Store", "APIs": "APIs", "Kubelet": "Kubelets", "Scheduler": "Scheduler",
			"Volume": "Volume", "Cassandra": "Cassandra", "Oracles": "Oracles", "Admin": "."},
		wiring: map[string]string{"Opts": config, "World": "sim's own snapshots: Kernel, Net",
			"Hosts": "the kubelets' hosts, by node"},
	},
	reflect.TypeFor[infra.Admin](): {state: "uids", carried: "AdminUIDs",
		children: map[string]string{"conn": "AdminConn"},
		wiring:   map[string]string{"c": fixed}},
	reflect.TypeFor[store.Server](): {
		children: map[string]string{"st": ".", "subs": "Subs"},
		wiring:   map[string]string{"id": fixed, "world": fixed, "rpc": "stateless dispatcher", "pushes": "allocator", "txns": "allocator"}},
	reflect.TypeFor[store.Store](): {state: "storeState", carried: "Store",
		wiring: map[string]string{"watchers": "rebuilt from the server's Subs", "notifyHooks": "re-installed by addOracles and recorders",
			"decoded": "memo", "prefixes": "re-Tracked by addOracles", "watcherOrder": "cache", "batches": "allocator"}},
	reflect.TypeFor[apiserver.Server](): {state: "state", carried: "State",
		wiring: map[string]string{"id": fixed, "world": fixed, "cfg": config, "timers": joined, "rpcCl": inFlight,
			"rpcSrv": "stateless dispatcher", "subsOrder": "cache", "subsByKind": "cache", "kindKeys": "index",
			"kindBroken": "index", "windowRev": "index", "decoded": "memo", "stats": "observability", "pushSlab": "allocator", "msgSlab": "allocator", "getSlab": "allocator",
			"shared": "the cluster's decode memo: a restored cluster wires an empty one"}},
	reflect.TypeFor[controller.Shell](): {
		children: map[string]string{"conn": "Conn", "queue": "Queue"},
		wiring:   map[string]string{"world": fixed, "spec": "the declaration, written in the component's source", "timers": joined}},
	reflect.TypeFor[kubelet.Kubelet](): {state: "state", carried: "State",
		children: map[string]string{"Shell": "Shell", "host": "Host"},
		wiring:   map[string]string{"cfg": config, "informer": found, "beat": "a method bound once by New and Restore"}},
	reflect.TypeFor[kubelet.Host](): {state: "hostState",
		wiring: map[string]string{"Name": fixed, "names": "cache", "gen": "means nothing across owners"}},
	reflect.TypeFor[scheduler.Scheduler](): {state: "state", carried: "State",
		children: map[string]string{"Shell": "Shell"},
		wiring:   map[string]string{"cfg": config, "podInf": found, "nodeInf": found}},
	reflect.TypeFor[controllers.VolumeController](): {
		children: map[string]string{"Shell": "Shell"},
		wiring:   map[string]string{"cfg": config, "podInf": found, "pvcInf": found}},
	reflect.TypeFor[cassandra.Operator](): {state: "state", carried: "State",
		children: map[string]string{"Shell": "Shell"},
		wiring:   map[string]string{"cfg": config, "crInf": found, "podInf": found, "pvcInf": found}},
	reflect.TypeFor[client.Conn](): {state: "connState", carried: "State",
		children: map[string]string{"informers": "Informers", "timers": "Self"},
		wiring:   map[string]string{"world": fixed, "self": fixed, "rpc": inFlight}},
	reflect.TypeFor[client.Informer](): {state: "informerState", carried: "State",
		wiring: map[string]string{"conn": fixed, "kind": config, "cfg": config, "order": "cache", "byNode": "index",
			"handlers": "re-attached by the component's Restore"}},
	reflect.TypeFor[controller.Queue](): {state: "queueState", carried: "State",
		children: map[string]string{"timers": "State"},
		wiring:   map[string]string{"cfg": config, "rec": "the component's reconcile", "set": "index"}},
	reflect.TypeFor[oracle.Runner](): {state: "state",
		wiring: map[string]string{"oracles": "re-registered by addOracles; RestoreFrom voids their gates",
			"handles": "re-pointed by RestoreFrom", "w": fixed, "every": config,
			"tick": "the kernel's observer: the pending tick is the kernel's"}},
}

// stateWalk checks one captured cluster: the live cluster, its snapshot and
// a cluster restored from it, component by component.
type stateWalk struct {
	t       *testing.T
	visited map[reflect.Type]bool
}

// component checks one component — live and restored are the structs, snap
// its snapshot — and then its children.
func (w *stateWalk) component(path string, live, snap, restored reflect.Value) {
	typ := live.Type()
	r := roles[typ]
	if !w.visited[typ] {
		w.visited[typ] = true
		w.fieldRoles(typ, r)
	}
	if r.state != "" {
		ss := snap
		if r.carried != "" {
			ss = snap.FieldByName(r.carried)
		}
		ls, rs := live.FieldByName(r.state), restored.FieldByName(r.state)
		w.unshared(path+"."+r.state, "the component and its snapshot", ls, ss, "")
		w.unshared(path+"."+r.state, "the snapshot and the restored component", ss, rs, "")
	}
	for name, carried := range r.children {
		cs := snap
		if carried != "." {
			cs = snap.FieldByName(carried)
		}
		w.children(path+"."+name, live.FieldByName(name), cs, restored.FieldByName(name))
	}
}

// fieldRoles checks that every field of a component type has exactly one
// role, that the roles name no field the type has lost, and that the state
// is plain data.
func (w *stateWalk) fieldRoles(typ reflect.Type, r role) {
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		_, child := r.children[name]
		_, wired := r.wiring[name]
		if n := btoi(name == r.state) + btoi(child) + btoi(wired); n != 1 {
			w.t.Errorf("field %s of %s has %d roles, want one: put it in the state struct, or on the type's wiring list in state_test.go with the reason it is not state",
				name, typ, n)
		}
	}
	for _, names := range []map[string]string{r.children, r.wiring, {r.state: ""}} {
		for name := range names {
			if _, ok := typ.FieldByName(name); !ok && name != "" {
				w.t.Errorf("the roles of %s name a field %s it does not have", typ, name)
			}
		}
	}
	if f, ok := typ.FieldByName(r.state); ok {
		w.plainData(fmt.Sprintf("%s.%s", typ, r.state), f.Type, "")
	}
}

// children pairs up the children one field holds — a pointer, or a map or
// slice of pointers — with their snapshots: map to map by key, and map to
// slice by the keys' order.
func (w *stateWalk) children(path string, live, snap, restored reflect.Value) {
	elem := live.Type()
	for elem.Kind() != reflect.Struct {
		elem = elem.Elem()
	}
	if elem == reflect.TypeFor[sim.Owner]() {
		// All a snapshot carries of an owner: whether its boot is over. A
		// component that arms no timer of its own has none.
		if live.IsNil() || restored.IsNil() {
			if live.IsNil() != restored.IsNil() {
				w.t.Errorf("%s: an owner on one side only (live nil: %v, restored nil: %v)", path, live.IsNil(), restored.IsNil())
			}
			return
		}
		if l, r := live.Elem().FieldByName("retired").Bool(), restored.Elem().FieldByName("retired").Bool(); l != r {
			w.t.Errorf("%s: retired is %v, and %v restored: Restore must retire the owner of a boot that is over", path, l, r)
		}
		return
	}
	if _, ok := roles[elem]; !ok {
		return
	}
	switch live.Kind() {
	case reflect.Struct:
		w.component(path, live, snap, restored)
	case reflect.Pointer:
		if live.IsNil() {
			return
		}
		if restored.IsNil() {
			w.t.Errorf("%s: the restored cluster has none", path)
			return
		}
		for snap.Kind() == reflect.Pointer {
			snap = snap.Elem()
		}
		w.component(path, live.Elem(), snap, restored.Elem())
	case reflect.Slice:
		for i := 0; i < live.Len(); i++ {
			w.children(fmt.Sprintf("%s[%d]", path, i), live.Index(i), snap.Index(i), restored.Index(i))
		}
	case reflect.Map:
		keys := live.MapKeys()
		slices.SortFunc(keys, func(a, b reflect.Value) int {
			if a.CanUint() {
				return cmp.Compare(a.Uint(), b.Uint())
			}
			return cmp.Compare(a.String(), b.String())
		})
		for i, k := range keys {
			cs := snap
			if snap.Kind() == reflect.Map {
				cs = snap.MapIndex(k)
			} else {
				cs = snap.Index(i)
			}
			w.children(fmt.Sprintf("%s[%v]", path, k), live.MapIndex(k), cs, restored.MapIndex(k))
		}
	}
}

// plainData fails on anything in a state type that a copy does not copy
// and no tag accounts for: a func, chan or interface anywhere, a pointer
// outside a field tagged snap:"shared" (clone copies the reference; what it
// points at is immutable or copy-on-write) or snap:"shared-elems" (clone
// re-makes the map or slice; its elements are shared).
func (w *stateWalk) plainData(path string, typ reflect.Type, tag string) {
	if tag == "shared" {
		return
	}
	switch typ.Kind() {
	case reflect.Func, reflect.Chan, reflect.Interface, reflect.UnsafePointer:
		w.t.Errorf("%s: a %s is not plain data: it cannot be state", path, typ.Kind())
	case reflect.Pointer:
		w.t.Errorf("%s: an untagged pointer in state: a copy of the state would share what it points at", path)
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			w.plainData(path+"."+f.Name, f.Type, f.Tag.Get("snap"))
		}
	case reflect.Map, reflect.Slice, reflect.Array:
		if typ.Kind() == reflect.Map {
			w.plainData(path+"[key]", typ.Key(), "")
		}
		if tag != "shared-elems" {
			w.plainData(path+"[]", typ.Elem(), "")
		}
	}
}

// unshared fails on a map or slice that two copies of one state hold in
// common — clone() forgot to re-make it — unless its field says so.
func (w *stateWalk) unshared(path, pair string, a, b reflect.Value, tag string) {
	if tag == "shared" {
		return
	}
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			f := a.Type().Field(i)
			w.unshared(path+"."+f.Name, pair, a.Field(i), b.Field(i), f.Tag.Get("snap"))
		}
	case reflect.Map:
		if !a.IsNil() && a.Pointer() == b.Pointer() {
			w.t.Errorf("%s: %s hold one map: clone() must re-make it (sim.CloneMap), or the field say snap:\"shared\"", path, pair)
			return
		}
		if tag == "shared-elems" {
			return
		}
		for it := a.MapRange(); it.Next(); {
			if bv := b.MapIndex(it.Key()); bv.IsValid() {
				w.unshared(fmt.Sprintf("%s[%v]", path, it.Key()), pair, it.Value(), bv, "")
			}
		}
	case reflect.Slice:
		if a.Len() > 0 && b.Len() > 0 && a.Pointer() == b.Pointer() {
			w.t.Errorf("%s: %s hold one backing array: clone() must re-make it (slices.Clone), or the field say snap:\"shared\"", path, pair)
			return
		}
		if tag == "shared-elems" {
			return
		}
		for i := 0; i < min(a.Len(), b.Len()); i++ {
			w.unshared(fmt.Sprintf("%s[%d]", path, i), pair, a.Index(i), b.Index(i), "")
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// everythingTarget is a cluster with every component — the cassandra
// operator beside the fixed scheduler and the volume controller — and enough
// of a workload that the store's lease tables and the runner's violations
// are not empty.
func everythingTarget() core.Target {
	t := workload.TargetCass398()
	t.Name = "everything"
	build := t.Build
	t.Build = func(seed int64) *infra.Cluster {
		opts := build(seed).Opts
		opts.EnableScheduler, opts.SchedulerEvictFix = true, true
		opts.EnableVolumeController = true
		return infra.New(opts)
	}
	inner := t.Workload
	t.Workload = func(c *infra.Cluster) {
		inner(c)
		// At absolute instants, as the targets' own actions are: a fork
		// re-creates a workload by running it again, and what lies before the
		// fork must schedule nothing.
		k := c.World.Kernel()
		k.At(sim.Time(300*sim.Millisecond), func() {
			st := c.Store.Store()
			st.Put("/members/probe", []byte("up"))
			c.Oracles.Report(oracle.Violation{Oracle: "probe", Time: c.World.Now()})
		})
	}
	return t
}

// allDown is t with every process crashed a millisecond before the test's
// mid-run capture: each owner is walked retired, beside a twin that must
// have been restored retired.
func allDown(t core.Target) core.Target {
	inner := t.Workload
	t.Name += ", all down"
	t.Workload = func(c *infra.Cluster) {
		inner(c)
		c.World.Kernel().Schedule(t.Horizon/2-sim.Millisecond, func() {
			for _, id := range c.World.ProcessIDs() {
				_ = c.World.Crash(id)
			}
		})
	}
	return t
}

// TestEveryFieldIsStateOrWiring is the gate that makes "Restore forgot a
// field" fail tier-1: restore assigns the state struct, so nothing inside it
// can be forgotten, and this test makes not being inside it a decision. On
// every target's mid-run cluster, a racked world and a cluster with every
// component on, it walks each component, its snapshot and its restored twin
// and fails on (i) a field that is neither the state, nor a child with a
// snapshot of its own, nor on the type's wiring list above; (ii) a map or
// slice that the component and its snapshot, or the snapshot and the
// restored component, hold in common, unless tagged snap:"shared"; (iii) a
// func, chan, interface or untagged pointer inside a state struct.
func TestEveryFieldIsStateOrWiring(t *testing.T) {
	w := &stateWalk{t: t, visited: map[reflect.Type]bool{}}
	targets := append(workload.AllTargets(),
		workload.ScaleRackDrainTarget(workload.ScaleProfile{Racks: 10, NodesPerRack: 5}), everythingTarget(), allDown(everythingTarget()))
	for _, tg := range targets {
		c := tg.Build(1)
		k := c.World.Kernel()
		tg.Workload(c)
		k.RunFor(tg.Horizon / 2)
		snap, ok := c.Capture()
		for end := k.Now().Add(sim.Second); !ok; snap, ok = c.Capture() {
			if k.Now() >= end {
				t.Fatalf("%s: no quiescent instant mid-run", tg.Name)
			}
			k.RunFor(sim.Millisecond)
		}
		c2, err := snap.NewCluster()
		if err != nil {
			t.Fatalf("%s: restore: %v", tg.Name, err)
		}
		w.component(tg.Name, reflect.ValueOf(c).Elem(), reflect.ValueOf(snap).Elem(), reflect.ValueOf(c2).Elem())
	}
	for typ := range roles {
		if !w.visited[typ] {
			t.Errorf("no cluster walked has a %s: its role was checked against nothing", typ)
		}
	}
}
