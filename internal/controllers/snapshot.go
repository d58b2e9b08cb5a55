package controllers

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// This file gives every built-in controller a snapshot/restore pair
// following the scheduler's contract: mutable maps are deep-copied at
// capture, informer caches travel inside the connection snapshot, pending
// timers inside the kernel's, and a restored controller finds its informers
// in the restored connection by kind.

// VolumeSnapshot captures the volume releaser at a checkpoint.
type VolumeSnapshot struct {
	Cfg      VolumeConfig
	Down     bool
	Epoch    uint64
	Releases int

	Conn *client.ConnSnapshot
}

// Snapshot captures the controller's state. It fails (ok=false) when an
// RPC call is in flight.
func (c *VolumeController) Snapshot() (*VolumeSnapshot, bool) {
	cs, ok := c.conn.Snapshot()
	if !ok {
		return nil, false
	}
	return &VolumeSnapshot{
		Cfg:      c.cfg,
		Down:     c.down,
		Epoch:    c.epoch,
		Releases: c.Releases,
		Conn:     cs,
	}, true
}

// RestoreVolume reconstructs a volume controller from a snapshot inside
// world w. The controller attaches no informer handlers (it is purely
// poll-driven), so restore only needs the cache pointers; no timers are
// armed.
func RestoreVolume(w *sim.World, snap *VolumeSnapshot) *VolumeController {
	c := &VolumeController{
		id:       VolumeControllerID,
		world:    w,
		cfg:      snap.Cfg,
		down:     snap.Down,
		epoch:    snap.Epoch,
		Releases: snap.Releases,
	}
	w.Network().Register(c.id, c)
	w.AddProcess(c)
	c.timers = w.Kernel().Own(string(c.id), c.pollFire)
	c.conn = client.RestoreConn(w, snap.Conn)
	c.podInf, c.pvcInf = c.conn.InformerFor(cluster.KindPod), c.conn.InformerFor(cluster.KindPVC)
	return c
}

// NodeLifecycleSnapshot captures the node lifecycle controller at a
// checkpoint.
type NodeLifecycleSnapshot struct {
	Cfg            NodeLifecycleConfig
	Down           bool
	Epoch          uint64
	MarkedNotReady int
	DeletedNodes   int
	EvictedPods    int

	Conn *client.ConnSnapshot
}

// Snapshot captures the controller's state. It fails (ok=false) when an
// RPC call is in flight.
func (c *NodeLifecycleController) Snapshot() (*NodeLifecycleSnapshot, bool) {
	cs, ok := c.conn.Snapshot()
	if !ok {
		return nil, false
	}
	return &NodeLifecycleSnapshot{
		Cfg:            c.cfg,
		Down:           c.down,
		Epoch:          c.epoch,
		MarkedNotReady: c.MarkedNotReady,
		DeletedNodes:   c.DeletedNodes,
		EvictedPods:    c.EvictedPods,
		Conn:           cs,
	}, true
}

// RestoreNodeLifecycle reconstructs a node lifecycle controller from a
// snapshot inside world w. No handlers (timer-driven) and no timers armed.
func RestoreNodeLifecycle(w *sim.World, snap *NodeLifecycleSnapshot) *NodeLifecycleController {
	c := &NodeLifecycleController{
		id:             NodeLifecycleID,
		world:          w,
		cfg:            snap.Cfg,
		down:           snap.Down,
		epoch:          snap.Epoch,
		MarkedNotReady: snap.MarkedNotReady,
		DeletedNodes:   snap.DeletedNodes,
		EvictedPods:    snap.EvictedPods,
	}
	w.Network().Register(c.id, c)
	w.AddProcess(c)
	c.timers = w.Kernel().Own(string(c.id), c.checkFire)
	c.conn = client.RestoreConn(w, snap.Conn)
	c.nodeInf, c.podInf = c.conn.InformerFor(cluster.KindNode), c.conn.InformerFor(cluster.KindPod)
	return c
}

// AppSetSnapshot captures the appset controller at a checkpoint.
type AppSetSnapshot struct {
	Cfg        AppSetConfig
	Down       bool
	Epoch      uint64
	UIDs       int
	Replacing  map[string]int
	PodCreates int
	PodDeletes int
	Rollouts   int

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
	snap := &AppSetSnapshot{
		Cfg:        c.cfg,
		Down:       c.down,
		Epoch:      c.epoch,
		UIDs:       c.uids.Counter(),
		Replacing:  make(map[string]int, len(c.replacing)),
		PodCreates: c.PodCreates,
		PodDeletes: c.PodDeletes,
		Rollouts:   c.Rollouts,
		Conn:       cs,
		Queue:      c.queue.Snapshot(),
	}
	for app, n := range c.replacing {
		snap.Replacing[app] = n
	}
	return snap, true
}

// RestoreAppSet reconstructs an appset controller from a snapshot inside
// world w. Informer handlers are re-attached without cache replay; no
// timers are armed.
func RestoreAppSet(w *sim.World, snap *AppSetSnapshot) *AppSetController {
	c := &AppSetController{
		id:         AppSetControllerID,
		world:      w,
		cfg:        snap.Cfg,
		down:       snap.Down,
		epoch:      snap.Epoch,
		uids:       cluster.NewUIDGen("appset"),
		replacing:  make(map[string]int, len(snap.Replacing)),
		PodCreates: snap.PodCreates,
		PodDeletes: snap.PodDeletes,
		Rollouts:   snap.Rollouts,
	}
	c.uids.SetCounter(snap.UIDs)
	for app, n := range snap.Replacing {
		c.replacing[app] = n
	}
	w.Network().Register(c.id, c)
	w.AddProcess(c)
	c.timers = w.Kernel().Own(string(c.id), c.resyncFire)
	c.conn = client.RestoreConn(w, snap.Conn)
	c.queue = controller.RestoreQueue(w.Kernel(), snap.Queue, controller.ReconcilerFunc(c.reconcile))
	c.appInf, c.podInf = c.conn.InformerFor(cluster.KindAppSet), c.conn.InformerFor(cluster.KindPod)
	if c.appInf != nil {
		c.appInf.RestoreHandler(controller.EnqueueHandler{Queue: c.queue})
		c.podInf.RestoreHandler(c.podHandler())
	}
	return c
}
