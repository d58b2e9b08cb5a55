// Package scheduler implements the pod scheduler: it watches unbound pods
// and nodes through informer caches and binds pods to nodes.
//
// Kubernetes-56261 (paper §4.2.3) is the target bug: the scheduler misses a
// node-deletion event (an observability gap in H'), keeps the dead node in
// its cache, and falls into a livelock of failed placements because nothing
// ever removes the node from S'. The fixed variant evicts a node from its
// view when binding fails with "node not found" — the upstream fix.
package scheduler

import (
	"slices"
	"strings"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// Config tunes the scheduler.
type Config struct {
	// APIServer is the scheduler's upstream.
	APIServer sim.NodeID
	// EvictUnknownNodes enables the fix for Kubernetes-56261: on a
	// node-not-found bind failure, drop the node from the scheduler's
	// view. With false, the stock buggy behaviour is reproduced.
	EvictUnknownNodes bool
}

// DefaultConfig returns settings matching the buggy upstream scheduler.
func DefaultConfig(api sim.NodeID) Config {
	return Config{APIServer: api}
}

// Scheduler is the control-plane scheduler process.
type Scheduler struct {
	controller.Shell
	cfg Config

	podInf  *client.Informer
	nodeInf *client.Informer
	state
}

// state is everything the scheduler itself carries from one event to the
// next; its shell carries its connection's and its queue's.
type state struct {
	// deadNodes are nodes evicted from consideration after bind failures
	// (only populated by the fixed variant).
	deadNodes map[string]bool
}

func (s state) clone() state {
	s.deadNodes = sim.CloneMap(s.deadNodes)
	return s
}

// ID is the scheduler's network identity.
const ID sim.NodeID = "scheduler"

// spec declares the scheduler to its shell. It arms no timer of its own.
func (s *Scheduler) spec() controller.Spec {
	watch := client.InformerConfig{WatchTimeout: sim.Second}
	return controller.Spec{
		ID:       ID,
		Upstream: func() (sim.NodeID, sim.Duration) { return s.cfg.APIServer, controller.CallTimeout },
		Informers: []controller.InformerSpec{
			{Into: &s.nodeInf, Kind: cluster.KindNode, Cfg: watch, Handler: s.nodeHandler},
			{Into: &s.podInf, Kind: cluster.KindPod, Cfg: watch, Handler: s.EnqueueHandler},
		},
		Reconcile: s.reconcile,
		Crashed:   func() { s.deadNodes = make(map[string]bool) },
	}
}

// New wires a scheduler into the world.
func New(w *sim.World, cfg Config) *Scheduler {
	s := &Scheduler{cfg: cfg, state: state{deadNodes: make(map[string]bool)}}
	s.Start(w, s, s.spec())
	return s
}

// nodeHandler forgets a bind failure once the node it was held against is
// gone.
func (s *Scheduler) nodeHandler() client.EventHandler {
	return client.HandlerFuncs{
		DeleteFunc: func(o *cluster.Object) { delete(s.deadNodes, o.Meta.Name) },
	}
}

// reconcile attempts to place one pod.
func (s *Scheduler) reconcile(podName string) (controller.Result, error) {
	pod, ok := s.podInf.Get(podName)
	if !ok || pod.Pod == nil || pod.Terminating() || pod.Pod.NodeName != "" {
		return controller.Result{}, nil
	}
	node, ok := pick(s.nodeInf.ListCached(), s.podInf.ListCached(), s.deadNodes)
	if !ok {
		// No nodes in view: try again later.
		return controller.Result{Requeue: true, RequeueAfter: 50 * sim.Millisecond}, nil
	}
	s.bind(pod, node)
	return controller.Result{}, nil
}

// pick chooses the ready node with most free capacity, breaking ties by
// topology spread (fewest pods already in the node's rack) and then by
// name. Nodes without a rack label all share one neutral rack, so
// unlabeled worlds order exactly as before the spread rule existed. The
// scheduler passes its caches, so the choice uses only S' — it cannot know
// about nodes or deletions it never observed. nodes is in name order: a
// pod's node is found by binary search, and the pass over the nodes keeps
// the first node no later node beats, which is the name tie-break. The
// counts live in slices, on the stack for a world of up to pickStack nodes.
func pick(nodes, pods []*cluster.Object, dead map[string]bool) (string, bool) {
	var usedBuf, rackBuf [pickStack]int
	used, rackOf := usedBuf[:], rackBuf[:] // per node: its pods, its rack's index (-1: none)
	if len(nodes) > pickStack {
		used, rackOf = make([]int, len(nodes)), make([]int, len(nodes))
	}
	for _, p := range pods {
		if p.Pod != nil && p.Pod.NodeName != "" && !p.Terminating() {
			if i, ok := slices.BinarySearchFunc(nodes, p.Pod.NodeName, byName); ok {
				used[i]++
			}
		}
	}
	type rack struct {
		name string
		load int
	}
	var racksBuf [16]rack
	racks := racksBuf[:0]
	for i, n := range nodes {
		rackOf[i] = -1
		if n.Node == nil || n.Node.Rack == "" {
			continue
		}
		r := slices.IndexFunc(racks, func(x rack) bool { return x.name == n.Node.Rack })
		if r < 0 {
			r = len(racks)
			racks = append(racks, rack{name: n.Node.Rack})
		}
		racks[r].load += used[i]
		rackOf[i] = r
	}
	var (
		best           string
		bestFree, load int
		found          bool
	)
	for i, n := range nodes {
		if n.Node == nil || !n.Node.Ready || dead[n.Meta.Name] {
			continue
		}
		free := n.Node.Capacity - used[i]
		if free <= 0 {
			continue
		}
		l := 0
		if r := rackOf[i]; r >= 0 {
			l = racks[r].load
		}
		if !found || free > bestFree || free == bestFree && l < load {
			best, bestFree, load, found = n.Meta.Name, free, l, true
		}
	}
	return best, found
}

// pickStack is the largest world pick counts in stack arrays.
const pickStack = 128

func byName(o *cluster.Object, name string) int { return strings.Compare(o.Meta.Name, name) }

// bind validates the node's existence (the binding subresource check) and
// writes the assignment.
func (s *Scheduler) bind(pod *cluster.Object, node string) {
	s.Conn().Get(cluster.KindNode, node, true, func(_ *cluster.Object, found bool, err error) {
		if err != nil {
			s.Queue().AddAfter(pod.Meta.Name, 50*sim.Millisecond)
			return
		}
		if !found {
			// "node not found": the node is gone but our cache does not
			// know. The buggy scheduler retries forever against the same
			// view; the fixed one evicts the node (Kubernetes-56261 fix).
			if s.cfg.EvictUnknownNodes {
				s.deadNodes[node] = true
			}
			s.Queue().AddAfter(pod.Meta.Name, 50*sim.Millisecond)
			return
		}
		bound := pod.Clone()
		bound.Pod.NodeName = node
		bound.Pod.Phase = cluster.PodScheduled
		s.Conn().Update(bound, func(_ *cluster.Object, err error) {
			if err != nil {
				s.Queue().AddAfter(pod.Meta.Name, 50*sim.Millisecond)
			}
		})
	})
}
