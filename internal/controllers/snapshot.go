package controllers

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// This file gives every built-in controller a snapshot/restore pair
// following the scheduler's contract: a snapshot is the controller's
// configuration, its state, and its children's snapshots; informer caches
// travel inside the connection snapshot, pending timers inside the
// kernel's, and a restored controller finds its informers in the restored
// connection by kind.

// VolumeSnapshot captures the volume releaser at a checkpoint.
type VolumeSnapshot struct {
	Cfg   VolumeConfig
	State volumeState
	Conn  *client.ConnSnapshot
}

// Snapshot captures the controller's state. It fails (ok=false) when an
// RPC call is in flight.
func (c *VolumeController) Snapshot() (*VolumeSnapshot, bool) {
	cs, ok := c.conn.Snapshot()
	if !ok {
		return nil, false
	}
	return &VolumeSnapshot{Cfg: c.cfg, State: c.volumeState, Conn: cs}, true
}

// RestoreVolume reconstructs a volume controller from a snapshot inside
// world w. The controller attaches no informer handlers (it is purely
// poll-driven), so restore only needs the cache pointers; no timers are
// armed.
func RestoreVolume(w *sim.World, snap *VolumeSnapshot) *VolumeController {
	c := wireVolume(w, snap.Cfg)
	c.volumeState = snap.State
	c.conn = client.RestoreConn(w, snap.Conn)
	if c.down {
		c.timers.Retire()
	}
	c.podInf, c.pvcInf = c.conn.InformerFor(cluster.KindPod), c.conn.InformerFor(cluster.KindPVC)
	return c
}

// NodeLifecycleSnapshot captures the node lifecycle controller at a
// checkpoint.
type NodeLifecycleSnapshot struct {
	Cfg   NodeLifecycleConfig
	State nodeLifecycleState
	Conn  *client.ConnSnapshot
}

// Snapshot captures the controller's state. It fails (ok=false) when an
// RPC call is in flight.
func (c *NodeLifecycleController) Snapshot() (*NodeLifecycleSnapshot, bool) {
	cs, ok := c.conn.Snapshot()
	if !ok {
		return nil, false
	}
	return &NodeLifecycleSnapshot{Cfg: c.cfg, State: c.nodeLifecycleState, Conn: cs}, true
}

// RestoreNodeLifecycle reconstructs a node lifecycle controller from a
// snapshot inside world w. No handlers (timer-driven) and no timers armed.
func RestoreNodeLifecycle(w *sim.World, snap *NodeLifecycleSnapshot) *NodeLifecycleController {
	c := wireNodeLifecycle(w, snap.Cfg)
	c.nodeLifecycleState = snap.State
	c.conn = client.RestoreConn(w, snap.Conn)
	if c.down {
		c.timers.Retire()
	}
	c.nodeInf, c.podInf = c.conn.InformerFor(cluster.KindNode), c.conn.InformerFor(cluster.KindPod)
	return c
}

// AppSetSnapshot captures the appset controller at a checkpoint.
type AppSetSnapshot struct {
	Cfg   AppSetConfig
	State appSetState
	Conn  *client.ConnSnapshot
	Queue *controller.QueueSnapshot
}

// Snapshot captures the controller's state. It fails (ok=false) when an
// RPC call is in flight.
func (c *AppSetController) Snapshot() (*AppSetSnapshot, bool) {
	cs, ok := c.conn.Snapshot()
	if !ok {
		return nil, false
	}
	return &AppSetSnapshot{Cfg: c.cfg, State: c.appSetState.clone(), Conn: cs, Queue: c.queue.Snapshot()}, true
}

// RestoreAppSet reconstructs an appset controller from a snapshot inside
// world w. Informer handlers are re-attached without cache replay; no
// timers are armed.
func RestoreAppSet(w *sim.World, snap *AppSetSnapshot) *AppSetController {
	c := wireAppSet(w, snap.Cfg)
	c.appSetState = snap.State.clone()
	c.conn = client.RestoreConn(w, snap.Conn)
	c.queue = controller.RestoreQueue(w.Kernel(), snap.Queue, controller.ReconcilerFunc(c.reconcile))
	if c.down {
		c.timers.Retire()
	}
	c.appInf, c.podInf = c.conn.InformerFor(cluster.KindAppSet), c.conn.InformerFor(cluster.KindPod)
	if c.appInf != nil {
		c.appInf.RestoreHandler(controller.EnqueueHandler{Queue: c.queue})
		c.podInf.RestoreHandler(c.podHandler())
	}
	return c
}
