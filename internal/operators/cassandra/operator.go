// Package cassandra implements the Cassandra operator: a controller that
// reconciles a CassandraCluster custom resource into member pods
// (cass-0..cass-N-1) with one PVC each, handling scale-up, scale-down with
// decommission, and storage cleanup.
//
// It deliberately reproduces the three real bugs the paper's tool found in
// instaclustr/cassandra-operator (Section 7):
//
//   - #398 (observability gap): PVC cleanup triggers only on *observing* a
//     member pod in Terminating state; if the mark and the removal both
//     fall outside the operator's view, the PVC is orphaned.
//   - #400 (staleness / time travel): the decommission target is chosen
//     from the CR's status (ReadyMembers) — data the operator itself wrote
//     earlier and may now read back stale — so it can decommission the
//     wrong member and wedge the scale-down.
//   - #402 (staleness): PVC garbage collection trusts the cached view of
//     the CR spec and pods; after a restart against a stale apiserver it
//     deletes the PVC of a live member.
//
// Each bug has an independent fix flag so experiments can toggle them.
package cassandra

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// Fixes selects which of the three bug fixes are active. The zero value is
// the stock (buggy) operator.
type Fixes struct {
	// Fix398 also deletes PVCs whose owner pod is absent (not only
	// observed-terminating).
	Fix398 bool
	// Fix400 chooses the decommission target from the live pod list
	// instead of the CR status, and un-wedges a decommission whose target
	// no longer exists.
	Fix400 bool
	// Fix402 verifies a resumed decommission against a quorum read of the
	// CR, and re-drains in the safe order (mark, await, then storage)
	// instead of deleting the PVC first.
	Fix402 bool
	// DefensiveRelist makes the operator's informers periodically relist,
	// bounding how long a silently lost notification can skew its view —
	// part of the hardened configuration.
	DefensiveRelist bool
}

// AllFixed enables every fix.
func AllFixed() Fixes {
	return Fixes{Fix398: true, Fix400: true, Fix402: true, DefensiveRelist: true}
}

// Config tunes the operator.
type Config struct {
	// APIServer is the operator's upstream.
	APIServer sim.NodeID
	// Fixes toggles the per-bug fixes.
	Fixes Fixes
}

// DefaultConfig returns the stock (buggy) operator configuration.
func DefaultConfig(api sim.NodeID) Config {
	return Config{APIServer: api}
}

const (
	// ClusterName is the CassandraCluster CR the operator manages.
	ClusterName = "cass"
	// drainTime is how long a decommission drain takes.
	drainTime = 100 * sim.Millisecond
	// resyncInterval re-enqueues the CR periodically (level triggering).
	resyncInterval = 200 * sim.Millisecond
)

// Operator is the Cassandra operator process.
type Operator struct {
	controller.Shell
	cfg Config

	crInf  *client.Informer
	podInf *client.Informer
	pvcInf *client.Informer
	state
}

// state is everything the operator itself carries from one event to the
// next; its shell carries its connection's and its queue's.
type state struct {
	uids cluster.UIDGen

	// draining tracks an in-flight drain (decommission) per member.
	draining map[string]bool
	// sawTerminating records member pods observed in Terminating state —
	// the (gap-prone) trigger for the stock PVC cleanup.
	sawTerminating map[string]bool
}

func (s state) clone() state {
	s.draining = sim.CloneMap(s.draining)
	s.sawTerminating = sim.CloneMap(s.sawTerminating)
	return s
}

// OperatorID is the operator's network identity.
const OperatorID sim.NodeID = "cassandra-operator"

// spec declares the operator to its shell. Upstream reads the live
// configuration: SetUpstream changes it between a crash and the restart.
func (o *Operator) spec() controller.Spec {
	watch := client.InformerConfig{WatchTimeout: sim.Second}
	if o.cfg.Fixes.DefensiveRelist {
		watch.RelistEvery = 1500 * sim.Millisecond
	}
	return controller.Spec{
		ID:       OperatorID,
		Upstream: func() (sim.NodeID, sim.Duration) { return o.cfg.APIServer, controller.CallTimeout },
		Informers: []controller.InformerSpec{
			{Into: &o.crInf, Kind: cluster.KindCassandra, Cfg: watch, Handler: o.EnqueueHandler},
			{Into: &o.podInf, Kind: cluster.KindPod, Cfg: watch, Handler: o.podHandler},
			{Into: &o.pvcInf, Kind: cluster.KindPVC, Cfg: watch},
		},
		Reconcile: o.reconcile,
		Fire:      o.fire,
		Booted:    o.scheduleResync,
		// Volatile memory: in-flight drains and observed marks are forgotten —
		// which is why the 398 gap also opens across operator restarts.
		Crashed: func() {
			o.draining = make(map[string]bool)
			o.sawTerminating = make(map[string]bool)
		},
	}
}

// New wires the operator into the world.
func New(w *sim.World, cfg Config) *Operator {
	o := &Operator{cfg: cfg}
	o.uids = cluster.NewUIDGen("cass-op")
	o.draining = make(map[string]bool)
	o.sawTerminating = make(map[string]bool)
	o.Start(w, o, o.spec())
	return o
}

// fire runs one of the operator's own timers.
func (o *Operator) fire(tag sim.EventTag) {
	switch tag.Kind {
	case "resync":
		o.Queue().Add(ClusterName)
		o.scheduleResync()
	case "drain":
		o.drainFire(tag.Key)
	case "awaitgone":
		o.awaitGoneThenCleanup(tag.Key, int(tag.N))
	}
}

// SetUpstream changes the apiserver the operator will connect to on its
// next (re)boot — the time-travel ingredient: a restarted operator may come
// back against a stale upstream.
func (o *Operator) SetUpstream(api sim.NodeID) { o.cfg.APIServer = api }

// SetRestartUpstream implements core.Resteerable.
func (o *Operator) SetRestartUpstream(api sim.NodeID) { o.SetUpstream(api) }

// podHandler notes what the operator sees of its members' pods and queues
// the cluster on every change to one.
func (o *Operator) podHandler() client.EventHandler {
	return client.HandlerFuncs{
		AddFunc:    func(p *cluster.Object) { o.observePod(p) },
		UpdateFunc: func(_, p *cluster.Object) { o.observePod(p) },
		DeleteFunc: func(p *cluster.Object) {
			if o.isMember(p) {
				o.Queue().Add(ClusterName)
			}
		},
	}
}

func (o *Operator) observePod(p *cluster.Object) {
	if !o.isMember(p) {
		return
	}
	if p.Terminating() {
		o.sawTerminating[p.Meta.Name] = true
	}
	o.Queue().Add(ClusterName)
}

func (o *Operator) scheduleResync() {
	o.After(resyncInterval, sim.EventTag{Kind: "resync"})
}

// Naming helpers.

func (o *Operator) memberName(i int) string { return ClusterName + "-" + strconv.Itoa(i) }

func (o *Operator) pvcName(member string) string { return member + "-data" }

func (o *Operator) isMember(p *cluster.Object) bool {
	return p.Pod != nil && p.Pod.App == ClusterName &&
		strings.HasPrefix(p.Meta.Name, ClusterName+"-")
}

func (o *Operator) ordinalOf(name string) int {
	rest := strings.TrimPrefix(name, ClusterName+"-")
	n, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return n
}

// members returns current member pods from the operator's view, sorted by
// ordinal.
func (o *Operator) members() []*cluster.Object {
	var out []*cluster.Object
	for _, p := range o.podInf.ListCached() {
		if o.isMember(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return o.ordinalOf(out[i].Meta.Name) < o.ordinalOf(out[j].Meta.Name)
	})
	return out
}

// reconcile drives the CR toward its desired replica count.
func (o *Operator) reconcile(key string) (controller.Result, error) {
	if key != ClusterName {
		return controller.Result{}, nil
	}
	if !o.crInf.Synced() || !o.podInf.Synced() || !o.pvcInf.Synced() {
		return controller.Result{Requeue: true, RequeueAfter: 50 * sim.Millisecond}, nil
	}
	cr, ok := o.crInf.Get(ClusterName)
	if !ok || cr.Cassandra == nil || cr.Terminating() {
		return controller.Result{}, nil
	}
	desired := cr.Cassandra.Replicas
	members := o.members()
	live := make([]*cluster.Object, 0, len(members))
	for _, m := range members {
		if !m.Terminating() {
			live = append(live, m)
		}
	}

	// In-flight decommission: wait for it to finish before other moves.
	if cr.Cassandra.Decommissioning != "" {
		o.continueDecommission(cr)
		o.sweepOrphanPVCs(cr, members)
		return controller.Result{Requeue: true, RequeueAfter: 50 * sim.Millisecond}, nil
	}

	switch {
	case len(live) < desired:
		o.scaleUp(cr, live, desired)
	case len(live) > desired:
		o.startDecommission(cr, live)
	default:
		o.updateStatus(cr, live)
	}
	o.sweepOrphanPVCs(cr, members)
	return controller.Result{}, nil
}

// scaleUp creates missing member pods (and their PVCs) up to desired.
func (o *Operator) scaleUp(cr *cluster.Object, live []*cluster.Object, desired int) {
	have := make(map[string]bool, len(live))
	for _, m := range live {
		have[m.Meta.Name] = true
	}
	for i := 0; i < desired; i++ {
		name := o.memberName(i)
		if have[name] {
			continue
		}
		o.ensurePVC(name)
		pod := cluster.NewPod(name, o.uids.Next(), cluster.PodSpec{
			App:   ClusterName,
			Phase: cluster.PodPending,
		})
		pod.Meta.OwnerUID = cr.Meta.UID
		o.Conn().Create(pod, func(*cluster.Object, error) {
			o.Queue().AddAfter(ClusterName, 20*sim.Millisecond)
		})
	}
}

func (o *Operator) ensurePVC(member string) {
	name := o.pvcName(member)
	if _, ok := o.pvcInf.Get(name); ok {
		return
	}
	pvc := cluster.NewPVC(name, o.uids.Next(), cluster.PVCSpec{
		OwnerPod: member,
		Phase:    cluster.PVCBound,
		SizeGB:   100,
	})
	o.Conn().Create(pvc, nil)
}

// rackOfOrdinal returns the rack member ordinal ord occupies under the
// CR's round-robin rack assignment ("" when racks are not configured).
func rackOfOrdinal(racks []string, ord int) string {
	if len(racks) == 0 || ord < 0 {
		return ""
	}
	return racks[ord%len(racks)]
}

// decommissionTarget picks which member of names (sorted by ordinal) to
// drain. Without racks this is the flat ordering the operator always had:
// the last (highest-ordinal) entry. With racks configured it is
// rack-aware: the highest-ordinal member of the most-populated rack(s) —
// scale-down rebalances unbalanced racks first, mirroring
// cass-operator's scale_down_unbalanced_racks scenario. When racks are
// balanced every rack is most-populated and the choice degenerates to
// the flat tail, so balanced worlds behave exactly as before.
func (o *Operator) decommissionTarget(racks, names []string) string {
	if len(names) == 0 {
		return ""
	}
	if len(racks) == 0 {
		return names[len(names)-1]
	}
	counts := make(map[string]int, len(racks))
	for _, n := range names {
		if r := rackOfOrdinal(racks, o.ordinalOf(n)); r != "" {
			counts[r]++
		}
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	best, target := -1, ""
	for _, n := range names {
		ord := o.ordinalOf(n)
		r := rackOfOrdinal(racks, ord)
		if r != "" && counts[r] == max && ord > best {
			best, target = ord, n
		}
	}
	if target == "" {
		return names[len(names)-1]
	}
	return target
}

// startDecommission picks the member to remove and begins draining it.
//
// Stock behaviour (#400): the target is chosen from the CR status's
// ReadyMembers list — state the operator wrote on an earlier reconcile and
// has now read back through a possibly stale cache. If that status lags the
// real membership, the operator drains the wrong member, or a member that
// no longer exists (wedging the scale-down).
//
// Fixed behaviour: the target is chosen from the live pod list. Either
// way the choice within the list is decommissionTarget's (rack-aware when
// the CR configures racks, flat tail otherwise).
func (o *Operator) startDecommission(cr *cluster.Object, live []*cluster.Object) {
	racks := cr.Cassandra.Racks
	liveNames := make([]string, 0, len(live))
	for _, m := range live {
		liveNames = append(liveNames, m.Meta.Name)
	}
	var target string
	if o.cfg.Fixes.Fix400 {
		target = o.decommissionTarget(racks, liveNames)
	} else {
		rm := cr.Cassandra.ReadyMembers
		if len(rm) == 0 {
			// No status yet: fall back to the live view.
			target = o.decommissionTarget(racks, liveNames)
		} else {
			target = o.decommissionTarget(racks, rm)
		}
	}
	upd := cr.Clone()
	upd.Cassandra.Decommissioning = target
	o.Conn().Update(upd, func(_ *cluster.Object, err error) {
		if err != nil {
			o.Queue().AddAfter(ClusterName, 50*sim.Millisecond)
			return
		}
		o.drain(target)
	})
}

// drain simulates the Cassandra drain, then two-phase-deletes the pod and
// cleans up its storage.
func (o *Operator) drain(member string) {
	if o.draining[member] {
		return
	}
	// The marker stays set through drain *and* cleanup, so reconcile never
	// "resumes" an operation this process is still executing. Only a crash
	// (which wipes the map) leaves a resumable CR marker behind.
	o.draining[member] = true
	o.After(drainTime, sim.EventTag{Kind: "drain", Key: member})
}

// drainFire completes a drain once the drain time elapses.
func (o *Operator) drainFire(member string) {
	pod, ok := o.podInf.Get(member)
	if !ok {
		// Target already gone (e.g. a ghost from stale status, or the
		// kubelet finalized faster than the drain).
		o.maybeCleanupPVC(member)
		delete(o.draining, member)
		o.clearDecommission()
		return
	}
	marked := pod.Clone()
	marked.Meta.DeletionTimestamp = int64(o.World().Now())
	o.Conn().Update(marked, func(_ *cluster.Object, err error) {
		if err != nil {
			delete(o.draining, member)
			o.Queue().AddAfter(ClusterName, 50*sim.Millisecond)
			return
		}
		// Unscheduled members have no kubelet to finalize them; the
		// operator removes the object itself. Scheduled members are
		// finalized by their kubelet once containers stop.
		if pod.Pod.NodeName == "" {
			o.Conn().Delete(cluster.KindPod, member, 0, nil)
		}
		o.awaitGoneThenCleanup(member, 64)
	})
}

// awaitGoneThenCleanup polls the operator's own view until the member pod
// disappears, then cleans up the PVC and finishes the decommission.
func (o *Operator) awaitGoneThenCleanup(member string, attempts int) {
	if _, ok := o.podInf.Get(member); !ok {
		o.maybeCleanupPVC(member)
		delete(o.draining, member)
		o.clearDecommission()
		return
	}
	if attempts <= 0 {
		delete(o.draining, member)
		return
	}
	o.After(20*sim.Millisecond,
		sim.EventTag{Kind: "awaitgone", Key: member, N: uint64(attempts - 1)})
}

// maybeCleanupPVC removes the decommissioned member's PVC.
//
// Stock behaviour (#398): the deletion requires the operator to have
// *observed* the member pod carrying a DeletionTimestamp. If that
// observation was lost — dropped notification, or an operator restart wiped
// the in-memory record — the PVC is silently kept forever (storage leak).
// Fix398 deletes on absence regardless.
func (o *Operator) maybeCleanupPVC(member string) {
	if !o.cfg.Fixes.Fix398 && !o.sawTerminating[member] {
		return // never saw the deletionTimestamp → skip (the bug)
	}
	pvc, ok := o.pvcInf.Get(o.pvcName(member))
	if !ok {
		return
	}
	o.Conn().Delete(cluster.KindPVC, pvc.Meta.Name, 0, func(err error) {
		if err == nil {
			delete(o.sawTerminating, member)
		}
	})
}

// continueDecommission resumes an in-flight decommission found in the CR —
// typically after an operator restart.
//
// Stock behaviour (#402): the operator trusts the (possibly stale) cached
// CR. If the decommission actually completed long ago and the member was
// since re-created by a scale-up, the resumed "cleanup" destroys a live
// member: it deletes the PVC first (storage cleanup before kill, as the
// original code did) and then removes the pod. Fix402 verifies the CR with
// a quorum read before resuming.
func (o *Operator) continueDecommission(cr *cluster.Object) {
	member := cr.Cassandra.Decommissioning
	if o.draining[member] {
		return
	}
	if !o.cfg.Fixes.Fix402 {
		o.resumeDecommission(member)
		return
	}
	o.Conn().Get(cluster.KindCassandra, ClusterName, true, func(truth *cluster.Object, found bool, err error) {
		if err != nil || !found || truth.Cassandra == nil {
			return
		}
		if truth.Cassandra.Decommissioning != member {
			// The cached CR was stale; nothing to resume. The informer
			// will catch up on its own.
			return
		}
		// Genuine resume: re-run the drain in the safe order (mark,
		// await disappearance, then clean up storage).
		o.drain(member)
	})
}

func (o *Operator) resumeDecommission(member string) {
	if o.draining[member] {
		return
	}
	o.draining[member] = true
	pod, ok := o.podInf.Get(member)
	if !ok {
		o.maybeCleanupPVC(member)
		delete(o.draining, member)
		o.clearDecommission()
		return
	}
	// Resume: the drain is assumed already done before the interruption.
	// Clean up storage first, then remove the pod.
	if pvc, pok := o.pvcInf.Get(o.pvcName(member)); pok {
		o.Conn().Delete(cluster.KindPVC, pvc.Meta.Name, 0, nil)
	}
	marked := pod.Clone()
	marked.Meta.DeletionTimestamp = int64(o.World().Now())
	o.Conn().Update(marked, func(_ *cluster.Object, err error) {
		if err != nil {
			delete(o.draining, member)
			o.Queue().AddAfter(ClusterName, 50*sim.Millisecond)
			return
		}
		if pod.Pod.NodeName == "" {
			o.Conn().Delete(cluster.KindPod, member, 0, nil)
		}
		o.awaitGoneThenCleanup(member, 64)
	})
}

func (o *Operator) clearDecommission() {
	cr, ok := o.crInf.Get(ClusterName)
	if !ok {
		return
	}
	upd := cr.Clone()
	upd.Cassandra.Decommissioning = ""
	o.Conn().Update(upd, func(_ *cluster.Object, err error) {
		o.Queue().AddAfter(ClusterName, 20*sim.Millisecond)
	})
}

// updateStatus records the observed membership in the CR status. This is
// the data the stock decommission later trusts (#400).
func (o *Operator) updateStatus(cr *cluster.Object, live []*cluster.Object) {
	names := make([]string, 0, len(live))
	for _, m := range live {
		names = append(names, m.Meta.Name)
	}
	if equalStrings(cr.Cassandra.ReadyMembers, names) {
		return
	}
	upd := cr.Clone()
	upd.Cassandra.ReadyMembers = names
	o.Conn().Update(upd, func(*cluster.Object, error) {})
}

// sweepOrphanPVCs is the level-triggered garbage collector that the fixed
// operator gains with Fix398: any member PVC whose ordinal is beyond the
// desired count and whose owner pod is absent gets removed, with a quorum
// verification of both facts (so the sweep itself cannot be fooled by a
// stale cache). The stock operator has no such sweep — PVC cleanup is
// purely observation-triggered, which is exactly why missing the
// deletionTimestamp observation leaks storage.
func (o *Operator) sweepOrphanPVCs(cr *cluster.Object, members []*cluster.Object) {
	if !o.cfg.Fixes.Fix398 {
		return
	}
	desired := cr.Cassandra.Replicas
	present := make(map[string]bool, len(members))
	for _, m := range members {
		present[m.Meta.Name] = true
	}
	for _, pvc := range o.pvcInf.ListCached() {
		if pvc.PVC == nil || pvc.PVC.OwnerPod == "" {
			continue
		}
		owner := pvc.PVC.OwnerPod
		ord := o.ordinalOf(owner)
		if ord < 0 || ord < desired || present[owner] {
			continue
		}
		name := pvc.Meta.Name
		// Verify against ground truth before destroying storage.
		o.Conn().Get(cluster.KindPod, owner, true, func(_ *cluster.Object, found bool, err error) {
			if err != nil || found {
				return
			}
			o.Conn().Delete(cluster.KindPVC, name, 0, func(err error) {
				if err == nil {
					delete(o.sawTerminating, owner)
				}
			})
		})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
