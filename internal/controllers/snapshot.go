package controllers

import (
	"repro/internal/controller"
	"repro/internal/sim"
)

// This file gives the volume releaser its snapshot/restore pair: a snapshot
// is the controller's configuration and its shell's snapshot; a restore is
// the same declaration handed to the shell with it. The controller carries
// no state of its own from one event to the next.

// VolumeSnapshot captures the volume releaser at a checkpoint.
type VolumeSnapshot struct {
	Cfg   VolumeConfig
	Shell controller.ShellSnapshot
}

// Snapshot captures the controller, whose connection must be Quiescent.
func (c *VolumeController) Snapshot() *VolumeSnapshot {
	return &VolumeSnapshot{Cfg: c.cfg, Shell: c.Shell.Snapshot()}
}

// RestoreVolume reconstructs a volume controller from a snapshot inside
// world w.
func RestoreVolume(w *sim.World, snap *VolumeSnapshot) *VolumeController {
	c := &VolumeController{cfg: snap.Cfg}
	c.Shell.Restore(w, c, c.spec(), snap.Shell)
	return c
}
