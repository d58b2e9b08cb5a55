// Package controllers hosts built-in control-plane controllers of the
// simulated infrastructure: the volume releaser (the observability-gap bug
// of paper §4.2.3 / cassandra-operator-398's generic form) and the node
// lifecycle controller that garbage-collects dead nodes.
package controllers

import (
	"sort"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// VolumeConfig tunes the volume releaser.
type VolumeConfig struct {
	// APIServer is the controller's upstream.
	APIServer sim.NodeID
	// PollInterval is the period between sparse reads of the controller's
	// local view S'. The controller is deliberately level-triggered on a
	// timer — it inspects state, it does not react to events — which is
	// what makes the intermediate "terminating" state observable only if
	// a poll happens to land between e1 (mark) and e2 (delete).
	PollInterval sim.Duration
	// ReleaseOnAbsentOwner enables the fix: release a PVC whose owner pod
	// no longer exists at all. The buggy variant (false) releases only
	// when it *sees* the owner in Terminating state, so a mark+delete pair
	// falling between two polls orphans the PVC forever.
	ReleaseOnAbsentOwner bool
	// RPCTimeout bounds apiserver calls.
	RPCTimeout sim.Duration
}

// DefaultVolumeConfig returns the stock (buggy) configuration.
func DefaultVolumeConfig(api sim.NodeID) VolumeConfig {
	return VolumeConfig{
		APIServer:    api,
		PollInterval: 100 * sim.Millisecond,
		RPCTimeout:   200 * sim.Millisecond,
	}
}

// VolumeController releases PVCs of deleted pods. It mirrors the
// Kubernetes controller bug [17]: "the controller only learns of the state
// of the system via sparse reads of its local view S'".
type VolumeController struct {
	id     sim.NodeID
	world  *sim.World
	cfg    VolumeConfig
	timers *sim.Owner

	conn   *client.Conn
	podInf *client.Informer
	pvcInf *client.Informer
	volumeState
}

// volumeState is everything the controller itself carries from one event
// to the next; its connection carries its own.
type volumeState struct {
	down bool

	// Releases counts successful PVC releases (experiment metric).
	Releases int
}

// VolumeControllerID is the controller's network identity.
const VolumeControllerID sim.NodeID = "volume-controller"

// wireVolume registers a volume controller with no state in the world:
// what NewVolumeController boots and RestoreVolume assigns a captured state
// to.
func wireVolume(w *sim.World, cfg VolumeConfig) *VolumeController {
	c := &VolumeController{id: VolumeControllerID, world: w, cfg: cfg}
	w.Network().Register(c.id, c)
	w.AddProcess(c)
	c.own()
	return c
}

// own registers the owner of one boot's timers: Crash retires it, Restart registers the next.
func (c *VolumeController) own() { c.timers = c.world.Kernel().Own(string(c.id), c.pollFire) }

// NewVolumeController wires the controller into the world.
func NewVolumeController(w *sim.World, cfg VolumeConfig) *VolumeController {
	c := wireVolume(w, cfg)
	c.boot()
	return c
}

// ID implements sim.Process.
func (c *VolumeController) ID() sim.NodeID { return c.id }

// Conn returns the controller's API connection.
func (c *VolumeController) Conn() *client.Conn { return c.conn }

// Crash implements sim.Process.
func (c *VolumeController) Crash() {
	c.down = true
	c.timers.Retire()
	c.conn.Reset()
	c.podInf, c.pvcInf = nil, nil
}

// Restart implements sim.Process.
func (c *VolumeController) Restart() {
	c.down = false
	c.own()
	c.boot()
}

// HandleMessage implements sim.Handler. The network delivers nothing to a
// crashed node, and a reset connection has nothing for a message to reach.
func (c *VolumeController) HandleMessage(m *sim.Message) { c.conn.HandleMessage(m) }

func (c *VolumeController) boot() {
	c.conn = client.NewConn(c.world, c.id, c.cfg.APIServer, c.cfg.RPCTimeout)
	c.podInf = client.NewInformer(c.conn, cluster.KindPod, client.InformerConfig{WatchTimeout: sim.Second})
	c.pvcInf = client.NewInformer(c.conn, cluster.KindPVC, client.InformerConfig{WatchTimeout: sim.Second})
	c.podInf.Run()
	c.pvcInf.Run()
	c.schedulePoll()
}

func (c *VolumeController) schedulePoll() {
	c.timers.After(c.cfg.PollInterval, sim.EventTag{Kind: "poll"})
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
	pvcs := c.pvcInf.ListCached()
	sort.Slice(pvcs, func(i, j int) bool { return pvcs[i].Meta.Name < pvcs[j].Meta.Name })
	for _, pvc := range pvcs {
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
	c.conn.Update(upd, func(_ *cluster.Object, err error) {
		if err == nil {
			c.Releases++
		}
	})
}
