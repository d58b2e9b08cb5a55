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
	"errors"
	"sort"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// errNoNodes says no candidate node is available.
var errNoNodes = errors.New("scheduler: no schedulable nodes")

// errNodeNotFound marks a bind rejected because the target node is gone.
var errNodeNotFound = errors.New("scheduler: bind failed, node not found")

// Config tunes the scheduler.
type Config struct {
	// APIServer is the scheduler's upstream.
	APIServer sim.NodeID
	// EvictUnknownNodes enables the fix for Kubernetes-56261: on a
	// node-not-found bind failure, drop the node from the scheduler's
	// view. With false, the stock buggy behaviour is reproduced.
	EvictUnknownNodes bool
	// RPCTimeout bounds apiserver calls.
	RPCTimeout sim.Duration
}

// DefaultConfig returns settings matching the buggy upstream scheduler.
func DefaultConfig(api sim.NodeID) Config {
	return Config{APIServer: api, RPCTimeout: 200 * sim.Millisecond}
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

	// Metrics.
	Binds        int
	BindFailures int
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
		Upstream: func() (sim.NodeID, sim.Duration) { return s.cfg.APIServer, s.cfg.RPCTimeout },
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

// NodeView returns the node names currently schedulable in the scheduler's
// cache (S'), sorted. Oracles compare this against ground truth.
func (s *Scheduler) NodeView() []string {
	if s.nodeInf == nil {
		return nil
	}
	var out []string
	for _, n := range s.nodeInf.ListCached() {
		if n.Node != nil && n.Node.Ready && !s.deadNodes[n.Meta.Name] {
			out = append(out, n.Meta.Name)
		}
	}
	sort.Strings(out)
	return out
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
	node, err := s.pickNode()
	if err != nil {
		// No nodes in view: try again later.
		return controller.Result{Requeue: true, RequeueAfter: 50 * sim.Millisecond}, nil
	}
	s.bind(pod, node)
	return controller.Result{}, nil
}

// pickNode chooses the ready cached node with most free capacity,
// breaking ties by topology spread (fewest pods already in the node's
// rack) and then by name. Nodes without a rack label all share one
// neutral rack, so unlabeled worlds order exactly as before the spread
// rule existed. The choice uses only S' — the scheduler cannot know
// about nodes or deletions it never observed.
func (s *Scheduler) pickNode() (string, error) {
	type cand struct {
		name     string
		free     int
		rackLoad int
	}
	used := make(map[string]int)
	for _, p := range s.podInf.ListCached() {
		if p.Pod != nil && p.Pod.NodeName != "" && !p.Terminating() {
			used[p.Pod.NodeName]++
		}
	}
	rackOf := make(map[string]string)
	for _, n := range s.nodeInf.ListCached() {
		if n.Node != nil && n.Node.Rack != "" {
			rackOf[n.Meta.Name] = n.Node.Rack
		}
	}
	rackLoad := make(map[string]int)
	for node, count := range used {
		if rack, ok := rackOf[node]; ok {
			rackLoad[rack] += count
		}
	}
	var cands []cand
	for _, n := range s.nodeInf.ListCached() {
		if n.Node == nil || !n.Node.Ready || s.deadNodes[n.Meta.Name] {
			continue
		}
		free := n.Node.Capacity - used[n.Meta.Name]
		if free > 0 {
			cands = append(cands, cand{n.Meta.Name, free, rackLoad[n.Node.Rack]})
		}
	}
	if len(cands) == 0 {
		return "", errNoNodes
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].free != cands[j].free {
			return cands[i].free > cands[j].free
		}
		if cands[i].rackLoad != cands[j].rackLoad {
			return cands[i].rackLoad < cands[j].rackLoad
		}
		return cands[i].name < cands[j].name
	})
	return cands[0].name, nil
}

// bind validates the node's existence (the binding subresource check) and
// writes the assignment.
func (s *Scheduler) bind(pod *cluster.Object, node string) {
	s.Conn().Get(cluster.KindNode, node, true, func(_ *cluster.Object, found bool, err error) {
		if err != nil {
			s.BindFailures++
			s.Queue().AddAfter(pod.Meta.Name, 50*sim.Millisecond)
			return
		}
		if !found {
			// "node not found": the node is gone but our cache does not
			// know. The buggy scheduler retries forever against the same
			// view; the fixed one evicts the node (Kubernetes-56261 fix).
			s.BindFailures++
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
				s.BindFailures++
				s.Queue().AddAfter(pod.Meta.Name, 50*sim.Millisecond)
				return
			}
			s.Binds++
		})
	})
}
