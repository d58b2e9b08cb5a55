// This file is the component half of the prefix-checkpoint layer
// (internal/sim/snapshot.go holds the simulation half). A cluster snapshot
// bundles the kernel's scheduling identity with every component's state;
// Snapshot.NewCluster rebuilds an equivalent cluster positioned mid-run,
// whose components have registered as the owners of their timers again, and
// InstallPending hands the captured pending events back to the kernel with
// their sequence numbers shifted past a forked plan's allocation band.
//
// Sharing rules (see DESIGN.md §7, "Component snapshot contracts"): a
// component's snapshot is its configuration, a clone() of its state struct
// and its children's snapshots; clone() re-makes every map and slice not
// tagged snap:"shared" (committed history events, apiserver watch windows)
// or snap:"shared-elems" (cached object pointers, KV value bytes). Oracles themselves are not captured: they
// keep no state of their own between ticks (DESIGN.md §5).
package infra

import (
	"fmt"

	"repro/internal/apiserver"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controllers"
	"repro/internal/kubelet"
	"repro/internal/operators/cassandra"
	"repro/internal/oracle"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/store"
)

// Snapshot captures a snapshotable cluster at a quiescent instant.
type Snapshot struct {
	Opts   Options
	Kernel sim.KernelSnapshot
	Net    sim.NetworkSnapshot

	Store     *store.Snapshot
	APIs      []*apiserver.Snapshot
	Kubelets  map[string]*kubelet.Snapshot
	Scheduler *scheduler.Snapshot // nil when the scheduler is disabled
	Volume    *controllers.VolumeSnapshot
	Cassandra *cassandra.Snapshot
	AdminConn *client.ConnSnapshot
	AdminUIDs cluster.UIDGen
	Oracles   *oracle.RunnerSnapshot
}

// Snapshotable reports whether every component in this cluster has a
// snapshot/restore implementation: every built-in one does. Its one reader
// is bench.ComputeE10, which fills BENCH_E10.json's snapshotable column.
func (c *Cluster) Snapshotable() bool { return true }

// Capture snapshots the cluster. It fails (ok=false) when the instant is
// not quiescent: an untagged kernel event is pending or a component RPC
// call is in flight — asked of every connection here, once, before any
// component is copied (the kernel is asked first: a call in flight has an
// untagged timeout pending, so that is where a refusal is cheapest). The
// caller should advance virtual time slightly and retry.
func (c *Cluster) Capture() (*Snapshot, bool) {
	ks, ok := c.World.Kernel().CaptureSnapshot()
	if !ok {
		return nil, false
	}
	for _, conn := range c.Conns() {
		if !conn.Quiescent() {
			return nil, false
		}
	}
	ss, ok := c.Store.Snapshot()
	if !ok {
		return nil, false
	}
	snap := &Snapshot{
		Opts:      c.Opts,
		Kernel:    ks,
		Net:       c.World.Network().Snapshot(),
		Store:     ss,
		Kubelets:  make(map[string]*kubelet.Snapshot, len(c.Kubelet)),
		AdminConn: c.Admin.conn.Snapshot(),
		AdminUIDs: c.Admin.uids,
		Oracles:   c.Oracles.Snapshot(),
	}
	for _, api := range c.APIs {
		snap.APIs = append(snap.APIs, api.Snapshot())
	}
	for _, node := range c.Opts.Nodes {
		snap.Kubelets[node] = c.Kubelet[node].Snapshot()
	}
	if c.Scheduler != nil {
		snap.Scheduler = c.Scheduler.Snapshot()
	}
	if c.Volume != nil {
		snap.Volume = c.Volume.Snapshot()
	}
	if c.Cassandra != nil {
		snap.Cassandra = c.Cassandra.Snapshot()
	}
	return snap, true
}

// NewCluster rebuilds a cluster from the snapshot, positioned at the
// capture instant. The restored world records which processes are down
// before any component joins it, so a component captured down joins with
// its owners retired. No timers are armed; the caller re-installs pending
// kernel events via InstallPending after applying the forked plan and
// rehydrating the workload.
func (s *Snapshot) NewCluster() (*Cluster, error) {
	w := sim.NewRestoredWorld(worldConfig(s.Opts.Seed), s.Kernel, s.Net)
	c := newCluster(s.Opts, w)
	c.Store = store.RestoreServer(w, s.Store)
	// The decode memo is not captured: the restored apiservers share an
	// empty one and refill it on miss.
	decodes := apiserver.NewDecodes()
	for _, as := range s.APIs {
		api := apiserver.Restore(w, as)
		api.ShareDecodes(decodes)
		c.APIs = append(c.APIs, api)
	}
	for _, node := range s.Opts.Nodes {
		ks, ok := s.Kubelets[node]
		if !ok {
			return nil, fmt.Errorf("infra: snapshot missing kubelet for node %s", node)
		}
		k := kubelet.Restore(w, ks)
		c.Kubelet[node] = k
		c.Hosts[node] = k.Host()
	}
	if s.Scheduler != nil {
		c.Scheduler = scheduler.Restore(w, s.Scheduler)
	}
	if s.Volume != nil {
		c.Volume = controllers.RestoreVolume(w, s.Volume)
	}
	if s.Cassandra != nil {
		c.Cassandra = cassandra.Restore(w, s.Cassandra)
	}
	c.Admin = newAdmin(c, client.RestoreConn(w, s.AdminConn), s.AdminUIDs)
	// Oracles: the same set on a fresh runner, then the captured runner's
	// violations and first-seen table — all the state oracles have.
	c.addOracles()
	c.Oracles.RestoreFrom(s.Oracles)
	c.Oracles.BindPeriodic(w, oraclePeriod)
	return c, nil
}

// InstallPending re-inserts the snapshot's pending kernel events into the
// restored cluster. Events allocated after the Build boundary (seq >
// buildSeq) are shifted by the forked plan's sequence allocation delta —
// signed, because a checkpoint-tree fork may apply a plan that allocates
// fewer sequence numbers than the base plan the snapshot was captured
// under. Workload-owned and plan-owned events are skipped: rehydrating the
// workload and re-applying the plan recreate them with exactly the
// sequence numbers a full replay would use. Every other event is its tag:
// the kernel finds the owner NewCluster registered under the tag's name,
// and fails when there is none.
func (c *Cluster) InstallPending(pending []sim.PendingEvent, buildSeq uint64, shift int64) error {
	for _, pe := range pending {
		if pe.Tag.Owner == "workload" || pe.Tag.Owner == "plan" {
			continue
		}
		seq := pe.Seq
		if seq > buildSeq {
			seq = uint64(int64(seq) + shift)
		}
		if err := c.World.Kernel().RestorePending(pe, seq); err != nil {
			return err
		}
	}
	return nil
}
