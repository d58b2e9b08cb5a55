// Package controllers hosts the built-in volume releaser of the simulated
// infrastructure: the observability-gap bug of paper §4.2.3, the generic
// form of cassandra-operator-398.
package controllers

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// VolumeConfig tunes the volume releaser.
type VolumeConfig struct {
	// APIServer is the controller's upstream.
	APIServer sim.NodeID
	// ReleaseOnAbsentOwner enables the fix: release a PVC whose owner pod
	// no longer exists at all. The buggy variant (false) releases only
	// when it *sees* the owner in Terminating state, so a mark+delete pair
	// falling between two polls orphans the PVC forever.
	ReleaseOnAbsentOwner bool
}

// DefaultVolumeConfig returns the stock (buggy) configuration.
func DefaultVolumeConfig(api sim.NodeID) VolumeConfig {
	return VolumeConfig{APIServer: api}
}

// pollInterval is the period between sparse reads of the controller's
// local view S'. The controller is deliberately level-triggered on a
// timer — it inspects state, it does not react to events — which is what
// makes the intermediate "terminating" state observable only if a poll
// happens to land between e1 (mark) and e2 (delete).
const pollInterval = 100 * sim.Millisecond

// VolumeController releases PVCs of deleted pods. It mirrors the
// Kubernetes controller bug [17]: "the controller only learns of the state
// of the system via sparse reads of its local view S'".
type VolumeController struct {
	controller.Shell
	cfg VolumeConfig

	podInf *client.Informer
	pvcInf *client.Informer
}

// VolumeControllerID is the controller's network identity.
const VolumeControllerID sim.NodeID = "volume-controller"

// watch is how every built-in controller's informers are configured.
var watch = client.InformerConfig{WatchTimeout: sim.Second}

// spec declares the controller to its shell. It attaches no informer
// handlers: it is purely poll-driven.
func (c *VolumeController) spec() controller.Spec {
	return controller.Spec{
		ID:       VolumeControllerID,
		Upstream: func() (sim.NodeID, sim.Duration) { return c.cfg.APIServer, controller.CallTimeout },
		Informers: []controller.InformerSpec{
			{Into: &c.podInf, Kind: cluster.KindPod, Cfg: watch},
			{Into: &c.pvcInf, Kind: cluster.KindPVC, Cfg: watch},
		},
		Fire:   c.pollFire,
		Booted: c.schedulePoll,
	}
}

// NewVolumeController wires the controller into the world.
func NewVolumeController(w *sim.World, cfg VolumeConfig) *VolumeController {
	c := &VolumeController{cfg: cfg}
	c.Start(w, c, c.spec())
	return c
}

func (c *VolumeController) schedulePoll() {
	c.After(pollInterval, sim.EventTag{Kind: "poll"})
}

// pollFire is the poll timer body, the one timer the controller owns.
func (c *VolumeController) pollFire(sim.EventTag) {
	c.poll()
	c.schedulePoll()
}

// poll is one sparse read of S': scan cached PVCs and decide releases.
func (c *VolumeController) poll() {
	if !c.podInf.Synced() || !c.pvcInf.Synced() {
		return
	}
	for _, pvc := range c.pvcInf.ListCached() {
		if pvc.PVC == nil || pvc.PVC.Phase != cluster.PVCBound || pvc.PVC.OwnerPod == "" {
			continue
		}
		owner, ok := c.podInf.Get(pvc.PVC.OwnerPod)
		switch {
		case ok && owner.Terminating():
			// e1 observed: owner is being deleted → release.
			c.release(pvc)
		case !ok && c.cfg.ReleaseOnAbsentOwner:
			// Fixed variant: owner vanished entirely (e1+e2 both fell
			// between polls) → still release.
			c.release(pvc)
		case !ok:
			// Buggy variant: the pod is gone and we never saw the mark.
			// The controller assumes it will observe Terminating first,
			// so it does nothing — the PVC is orphaned (§4.2.3).
		}
	}
}

func (c *VolumeController) release(pvc *cluster.Object) {
	upd := pvc.Clone()
	upd.PVC.Phase = cluster.PVCReleased
	c.Conn().Update(upd, nil)
}
