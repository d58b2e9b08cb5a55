package controllers

import (
	"repro/internal/controller"
	"repro/internal/sim"
)

// This file gives every built-in controller a snapshot/restore pair: a
// snapshot is the controller's configuration, its state, and its shell's
// snapshot; a restore is the same declaration handed to the shell with it.

// VolumeSnapshot captures the volume releaser at a checkpoint.
type VolumeSnapshot struct {
	Cfg   VolumeConfig
	State volumeState
	Shell controller.ShellSnapshot
}

// Snapshot captures the controller, whose connection must be Quiescent.
func (c *VolumeController) Snapshot() *VolumeSnapshot {
	return &VolumeSnapshot{Cfg: c.cfg, State: c.volumeState, Shell: c.Shell.Snapshot()}
}

// RestoreVolume reconstructs a volume controller from a snapshot inside
// world w.
func RestoreVolume(w *sim.World, snap *VolumeSnapshot) *VolumeController {
	c := &VolumeController{cfg: snap.Cfg, volumeState: snap.State}
	c.Shell.Restore(w, c, c.spec(), snap.Shell)
	return c
}

// NodeLifecycleSnapshot captures the node lifecycle controller at a
// checkpoint.
type NodeLifecycleSnapshot struct {
	Cfg   NodeLifecycleConfig
	State nodeLifecycleState
	Shell controller.ShellSnapshot
}

// Snapshot captures the controller, whose connection must be Quiescent.
func (c *NodeLifecycleController) Snapshot() *NodeLifecycleSnapshot {
	return &NodeLifecycleSnapshot{Cfg: c.cfg, State: c.nodeLifecycleState, Shell: c.Shell.Snapshot()}
}

// RestoreNodeLifecycle reconstructs a node lifecycle controller from a
// snapshot inside world w.
func RestoreNodeLifecycle(w *sim.World, snap *NodeLifecycleSnapshot) *NodeLifecycleController {
	c := &NodeLifecycleController{cfg: snap.Cfg, nodeLifecycleState: snap.State}
	c.Shell.Restore(w, c, c.spec(), snap.Shell)
	return c
}

// AppSetSnapshot captures the appset controller at a checkpoint.
type AppSetSnapshot struct {
	Cfg   AppSetConfig
	State appSetState
	Shell controller.ShellSnapshot
}

// Snapshot captures the controller, whose connection must be Quiescent.
func (c *AppSetController) Snapshot() *AppSetSnapshot {
	return &AppSetSnapshot{Cfg: c.cfg, State: c.appSetState.clone(), Shell: c.Shell.Snapshot()}
}

// RestoreAppSet reconstructs an appset controller from a snapshot inside
// world w.
func RestoreAppSet(w *sim.World, snap *AppSetSnapshot) *AppSetController {
	c := &AppSetController{cfg: snap.Cfg, appSetState: snap.State.clone()}
	c.Shell.Restore(w, c, c.spec(), snap.Shell)
	return c
}
