package oracle

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/kubelet"
	"repro/internal/sim"
	"repro/internal/store"
)

// Oracle names (stable identifiers used by experiments and reports).
const (
	NameUniquePod          = "UniquePod"
	NameSchedulerProgress  = "SchedulerProgress"
	NameNoOrphanPVC        = "NoOrphanPVC"
	NameNoLivePVCDeletion  = "NoLivePVCDeletion"
	NameScaleDownCompletes = "ScaleDownCompletes"
)

// listOf returns the handle on all objects of a kind in ground truth (the
// store). Its listing, Decoded(decodeObject), holds *cluster.Object values
// in name order and is rebuilt by the store only after a commit to the
// kind; listing and objects are shared by every reader and must never be
// mutated.
func listOf(st *store.Store, kind cluster.Kind) *store.Prefix {
	return st.Track(cluster.KindPrefix(kind))
}

func decodeObject(value []byte, rev int64) (any, error) {
	return cluster.Decode(value, rev)
}

// decodeOne is the single-key analogue of decodeState.
func decodeOne(st *store.Store, key string) (*cluster.Object, bool) {
	v, ok := st.DecodedGet(key, decodeObject)
	if !ok {
		return nil, false
	}
	return v.(*cluster.Object), true
}

// UniquePod checks the Kubernetes-59848 safety guarantee: at most one host
// runs a container for any pod name at any time.
func UniquePod(hosts []*kubelet.Host) Oracle {
	// seen is reused across evaluations (cleared, not reallocated): the
	// no-violation case stays allocation-free.
	seen := map[string]bool{}
	return Func{
		OracleName: NameUniquePod,
		CheckFunc: func(now sim.Time) *Violation {
			clear(seen)
			dup := false
			for _, h := range hosts {
				for _, name := range h.RunningNames() {
					if seen[name] {
						dup = true
					}
					seen[name] = true
				}
			}
			if !dup {
				return nil
			}
			// Violation path (rare): rebuild the full name->hosts view to
			// report the lexically first offender deterministically.
			running := map[string][]string{}
			for _, h := range hosts {
				for _, name := range h.RunningNames() {
					running[name] = append(running[name], h.Name)
				}
			}
			names := make([]string, 0, len(running))
			for n := range running {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				if len(running[n]) > 1 {
					sort.Strings(running[n])
					return &Violation{
						Oracle: NameUniquePod,
						Time:   now,
						Detail: fmt.Sprintf("pod %q running on multiple hosts: %s", n, strings.Join(running[n], ",")),
						Kind:   string(cluster.KindPod),
						Object: n,
					}
				}
			}
			return nil
		},
	}
}

// SchedulerProgress checks the Kubernetes-56261 liveness guarantee: a pod
// must not stay unscheduled longer than patience while a ready node with
// free capacity exists in ground truth. Since when each pod has been
// pending is kept in r's first-seen table.
func SchedulerProgress(r *Runner, st *store.Store, patience sim.Duration) Oracle {
	return &schedulerProgress{
		patience: patience,
		pending:  r.Since(NameSchedulerProgress, patience),
		pods:     listOf(st, cluster.KindPod),
		nodes:    listOf(st, cluster.KindNode),
		used:     map[string]int{},
		seen:     map[string]bool{},
	}
}

type schedulerProgress struct {
	patience    sim.Duration
	pending     *Since
	pods, nodes *store.Prefix
	used        map[string]int  // reused per evaluation
	seen        map[string]bool // reused per evaluation
}

// Name implements Oracle.
func (o *schedulerProgress) Name() string { return NameSchedulerProgress }

// Check implements Oracle.
func (o *schedulerProgress) Check(now sim.Time) *Violation {
	pods := o.pods.Decoded(decodeObject)
	seen := o.seen
	clear(seen)
	// Whether a ready node has room matters only once a pod has waited out
	// the patience, so the nodes are not looked at before: nine evaluations
	// in ten follow a node heartbeat with no pod pending, and decoding the
	// node it wrote would be their whole cost.
	free, looked := false, false
	for _, v := range pods {
		p := v.(*cluster.Object)
		if p.Pod == nil || p.Pod.NodeName != "" || p.Terminating() {
			continue
		}
		seen[p.Meta.Name] = true
		held := o.pending.Mark(p.Meta.Name, now)
		if held <= o.patience {
			continue
		}
		if !looked {
			free, looked = o.freeNode(pods), true
		}
		if free {
			return &Violation{
				Oracle:    NameSchedulerProgress,
				Time:      now,
				Detail:    fmt.Sprintf("pod %q unscheduled for %s despite free ready nodes", p.Meta.Name, held),
				Kind:      string(cluster.KindPod),
				Object:    p.Meta.Name,
				Component: "scheduler",
			}
		}
	}
	o.pending.Forget(seen)
	return nil
}

// freeNode reports whether ground truth holds a ready node with capacity
// left after the pods bound to it.
func (o *schedulerProgress) freeNode(pods []any) bool {
	used := o.used
	clear(used)
	for _, v := range pods {
		if p := v.(*cluster.Object); p.Pod != nil && p.Pod.NodeName != "" && !p.Terminating() {
			used[p.Pod.NodeName]++
		}
	}
	for _, v := range o.nodes.Decoded(decodeObject) {
		if n := v.(*cluster.Object); n.Node != nil && n.Node.Ready && n.Node.Capacity-used[n.Meta.Name] > 0 {
			return true
		}
	}
	return false
}

// NoOrphanPVC checks the volume-release guarantee ([17], op-398): a Bound
// PVC whose owner pod has been gone from ground truth for longer than grace
// is an orphan (storage leak). Since when each PVC has been ownerless is
// kept in r's first-seen table.
func NoOrphanPVC(r *Runner, st *store.Store, grace sim.Duration) Oracle {
	orphan := r.Since(NameNoOrphanPVC, grace)
	listPods := listOf(st, cluster.KindPod)
	listPVCs := listOf(st, cluster.KindPVC)
	pods := map[string]bool{} // reused per evaluation
	seen := map[string]bool{} // reused per evaluation
	return Func{
		OracleName: NameNoOrphanPVC,
		CheckFunc: func(now sim.Time) *Violation {
			clear(pods)
			clear(seen)
			for _, v := range listPods.Decoded(decodeObject) {
				pods[v.(*cluster.Object).Meta.Name] = true
			}
			for _, v := range listPVCs.Decoded(decodeObject) {
				pvc := v.(*cluster.Object)
				if pvc.PVC == nil || pvc.PVC.Phase != cluster.PVCBound || pvc.PVC.OwnerPod == "" {
					continue
				}
				if pods[pvc.PVC.OwnerPod] {
					continue
				}
				seen[pvc.Meta.Name] = true
				if held := orphan.Mark(pvc.Meta.Name, now); held > grace {
					return &Violation{
						Oracle: NameNoOrphanPVC,
						Time:   now,
						Detail: fmt.Sprintf("PVC %q still Bound %s after owner pod %q vanished", pvc.Meta.Name, held, pvc.PVC.OwnerPod),
						Kind:   string(cluster.KindPVC),
						Object: pvc.Meta.Name,
					}
				}
			}
			orphan.Forget(seen)
			return nil
		},
	}
}

// InstallNoLivePVCDeletion hooks the store's commit stream and reports a
// violation whenever a PVC is deleted while its owner pod still exists —
// the op-402 safety breach (data loss for a live member). Event-driven: it
// reports directly to the runner.
func InstallNoLivePVCDeletion(st *store.Store, r *Runner) {
	st.AddNotifyHook(func(events []history.Event) {
		for _, e := range events {
			if e.Type != history.Delete {
				continue
			}
			kind, name, err := cluster.ParseKey(e.Key)
			if err != nil || kind != cluster.KindPVC {
				continue
			}
			// Recover the owner from the last version is impossible post
			// delete; instead rely on naming convention lookup via the
			// PVC's recorded owner in the pre-delete state, which the
			// store no longer has. We therefore check: does any live pod
			// claim this PVC name pattern "<pod>-data"?
			owner := strings.TrimSuffix(name, "-data")
			if owner == name {
				continue
			}
			if pod, ok := decodeOne(st, cluster.Key(cluster.KindPod, owner)); ok {
				if !pod.Terminating() {
					r.Report(Violation{
						Oracle: NameNoLivePVCDeletion,
						Time:   sim.Time(e.Time),
						Detail: fmt.Sprintf("PVC %q deleted while owner pod %q is alive", name, owner),
						Kind:   string(cluster.KindPVC),
						Object: name,
					})
				}
			}
		}
	})
}

// ScaleDownCompletes checks the op-400 liveness guarantee: within patience
// of the last CR spec change, the member pod set must equal exactly
// {<name>-0 .. <name>-(R-1)} and no decommission may be in flight. The
// clock is r's first-seen table with the observed Replicas value as the
// subject: a spec change is a value seen for the first time.
func ScaleDownCompletes(r *Runner, st *store.Store, crName string, patience sim.Duration) Oracle {
	spec := r.Since(NameScaleDownCompletes, patience)
	crKey := cluster.Key(cluster.KindCassandra, crName)
	listPods := listOf(st, cluster.KindPod)
	// A memo of what follows from the observed Replicas value alone — the
	// subject, the one-subject set Forget takes, and want = {<name>-0 ..
	// <name>-(R-1)} — and got is cleared, not reallocated: the no-violation
	// case stays allocation-free.
	memoFor, subject := -1, ""
	only, want := map[string]bool{}, map[string]bool{}
	got := map[string]bool{}
	return Func{
		OracleName: NameScaleDownCompletes,
		CheckFunc: func(now sim.Time) *Violation {
			cr, ok := decodeOne(st, crKey)
			if !ok || cr.Cassandra == nil {
				return nil
			}
			if memoFor != cr.Cassandra.Replicas {
				memoFor, subject = cr.Cassandra.Replicas, strconv.Itoa(cr.Cassandra.Replicas)
				clear(only)
				only[subject] = true
				clear(want)
				for i := 0; i < cr.Cassandra.Replicas; i++ {
					want[fmt.Sprintf("%s-%d", crName, i)] = true
				}
			}
			sinceChange := spec.Mark(subject, now)
			spec.Forget(only)
			if sinceChange < patience {
				return nil
			}
			clear(got)
			for _, v := range listPods.Decoded(decodeObject) {
				if p := v.(*cluster.Object); p.Pod != nil && p.Pod.App == crName && !p.Terminating() {
					got[p.Meta.Name] = true
				}
			}
			if cr.Cassandra.Decommissioning != "" {
				return &Violation{
					Oracle: NameScaleDownCompletes,
					Time:   now,
					Detail: fmt.Sprintf("decommission of %q still in flight %s after spec change", cr.Cassandra.Decommissioning, sinceChange),
					Kind:   string(cluster.KindCassandra),
					Object: crName,
				}
			}
			if !sameSet(want, got) {
				return &Violation{
					Oracle: NameScaleDownCompletes,
					Time:   now,
					Detail: fmt.Sprintf("members %v != desired %v %s after spec change", keysOf(got), keysOf(want), sinceChange),
					Kind:   string(cluster.KindCassandra),
					Object: crName,
				}
			}
			return nil
		},
	}
}

func sameSet(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

func keysOf(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
