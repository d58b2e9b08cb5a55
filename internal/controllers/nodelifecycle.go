package controllers

import (
	"fmt"
	"strconv"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// NodeLifecycleConfig tunes the node lifecycle controller.
type NodeLifecycleConfig struct {
	// APIServer is the controller's upstream.
	APIServer sim.NodeID
	// CheckInterval is the heartbeat scan period.
	CheckInterval sim.Duration
	// NotReadyAfter marks a node NotReady when its heartbeat is older than
	// this.
	NotReadyAfter sim.Duration
	// DeleteAfter removes the node object (and force-deletes its pods)
	// when the heartbeat is older than this.
	DeleteAfter sim.Duration
	// RPCTimeout bounds apiserver calls.
	RPCTimeout sim.Duration
}

// DefaultNodeLifecycleConfig returns production-like settings.
func DefaultNodeLifecycleConfig(api sim.NodeID) NodeLifecycleConfig {
	return NodeLifecycleConfig{
		APIServer:     api,
		CheckInterval: 250 * sim.Millisecond,
		NotReadyAfter: sim.Second,
		DeleteAfter:   3 * sim.Second,
		RPCTimeout:    200 * sim.Millisecond,
	}
}

// NodeLifecycleController watches node heartbeats and garbage-collects
// nodes whose kubelets stopped reporting: first marking them NotReady, then
// deleting the node object and force-deleting its pods. It generates the
// node-deletion and pod-eviction events whose (non-)observation drives the
// membership-related bug family (§5 of the paper).
type NodeLifecycleController struct {
	controller.Shell
	cfg NodeLifecycleConfig

	nodeInf *client.Informer
	podInf  *client.Informer
	nodeLifecycleState
}

// nodeLifecycleState is everything the controller itself carries from one
// event to the next; its shell carries its connection's.
type nodeLifecycleState struct {
	// Metrics.
	MarkedNotReady int
	DeletedNodes   int
	EvictedPods    int
}

// NodeLifecycleID is the controller's network identity.
const NodeLifecycleID sim.NodeID = "node-lifecycle"

// spec declares the controller to its shell. No handlers: it is
// timer-driven.
func (c *NodeLifecycleController) spec() controller.Spec {
	return controller.Spec{
		ID:       NodeLifecycleID,
		Upstream: func() (sim.NodeID, sim.Duration) { return c.cfg.APIServer, c.cfg.RPCTimeout },
		Informers: []controller.InformerSpec{
			{Into: &c.nodeInf, Kind: cluster.KindNode, Cfg: watch},
			{Into: &c.podInf, Kind: cluster.KindPod, Cfg: watch},
		},
		Fire:   c.checkFire,
		Booted: c.scheduleCheck,
	}
}

// NewNodeLifecycleController wires the controller into the world.
func NewNodeLifecycleController(w *sim.World, cfg NodeLifecycleConfig) *NodeLifecycleController {
	c := &NodeLifecycleController{cfg: cfg}
	c.Start(w, c, c.spec())
	return c
}

func (c *NodeLifecycleController) scheduleCheck() {
	c.After(c.cfg.CheckInterval, sim.EventTag{Kind: "check"})
}

// checkFire is the heartbeat-scan timer body, the one timer the controller
// owns.
func (c *NodeLifecycleController) checkFire(sim.EventTag) {
	c.check()
	c.scheduleCheck()
}

func (c *NodeLifecycleController) check() {
	if !c.nodeInf.Synced() || !c.podInf.Synced() {
		return
	}
	now := int64(c.World().Now())
	for _, node := range c.nodeInf.ListCached() {
		if node.Node == nil {
			continue
		}
		hb := heartbeatOf(node)
		age := now - hb
		switch {
		case hb == 0:
			// Never heartbeated (just registered); leave it alone.
		case age > int64(c.cfg.DeleteAfter):
			c.deleteNode(node)
		case age > int64(c.cfg.NotReadyAfter) && node.Node.Ready:
			upd := node.Clone()
			upd.Node.Ready = false
			c.Conn().Update(upd, func(_ *cluster.Object, err error) {
				if err == nil {
					c.MarkedNotReady++
				}
			})
		}
	}
}

func (c *NodeLifecycleController) deleteNode(node *cluster.Object) {
	c.Conn().Delete(cluster.KindNode, node.Meta.Name, node.Meta.ResourceVersion, func(err error) {
		if err != nil {
			return
		}
		c.DeletedNodes++
		// Force-delete pods stranded on the dead node.
		for _, pod := range c.podInf.ListOnNode(node.Meta.Name) {
			name := pod.Meta.Name
			c.Conn().Delete(cluster.KindPod, name, 0, func(err error) {
				if err == nil {
					c.EvictedPods++
				}
			})
		}
	})
}

func heartbeatOf(node *cluster.Object) int64 {
	if node.Meta.Labels == nil {
		return 0
	}
	v, err := strconv.ParseInt(node.Meta.Labels["heartbeat"], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// HeartbeatLabel formats a heartbeat label value (shared with kubelet).
func HeartbeatLabel(t sim.Time) string { return fmt.Sprint(int64(t)) }
