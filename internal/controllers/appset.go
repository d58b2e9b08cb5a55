package controllers

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// AppSetConfig tunes the replicated-application controller.
type AppSetConfig struct {
	// APIServer is the controller's upstream.
	APIServer sim.NodeID
	// ResyncInterval re-enqueues every AppSet periodically.
	ResyncInterval sim.Duration
	// RPCTimeout bounds apiserver calls.
	RPCTimeout sim.Duration
	// MaxUnavailable bounds how many replicas a rolling upgrade may take
	// down at once (>= 1).
	MaxUnavailable int
}

// DefaultAppSetConfig returns production-like settings.
func DefaultAppSetConfig(api sim.NodeID) AppSetConfig {
	return AppSetConfig{
		APIServer:      api,
		ResyncInterval: 200 * sim.Millisecond,
		RPCTimeout:     200 * sim.Millisecond,
		MaxUnavailable: 1,
	}
}

// AppSetController is the Deployment/ReplicaSet analog: it reconciles every
// AppSet object into Replicas pods running the template image, replacing
// pods one at a time when the image changes (the rolling-upgrade actor of
// the Figure 2 scenario, here as a controller instead of a human).
type AppSetController struct {
	controller.Shell
	cfg AppSetConfig

	appInf *client.Informer
	podInf *client.Informer
	appSetState
}

// appSetState is everything the controller itself carries from one event
// to the next; its shell carries its connection's and its queue's.
type appSetState struct {
	uids cluster.UIDGen
	// replacing tracks in-flight rolling replacements per app.
	replacing map[string]int

	// Metrics.
	PodCreates int
	PodDeletes int
	Rollouts   int
}

func (s appSetState) clone() appSetState {
	s.replacing = sim.CloneMap(s.replacing)
	return s
}

// AppSetControllerID is the controller's network identity.
const AppSetControllerID sim.NodeID = "appset-controller"

// spec declares the controller to its shell.
func (c *AppSetController) spec() controller.Spec {
	return controller.Spec{
		ID:       AppSetControllerID,
		Upstream: func() (sim.NodeID, sim.Duration) { return c.cfg.APIServer, c.cfg.RPCTimeout },
		Informers: []controller.InformerSpec{
			{Into: &c.appInf, Kind: cluster.KindAppSet, Cfg: watch, Handler: c.EnqueueHandler},
			{Into: &c.podInf, Kind: cluster.KindPod, Cfg: watch, Handler: c.podHandler},
		},
		Reconcile: c.reconcile,
		Fire:      c.resyncFire,
		Booted:    c.scheduleResync,
		Crashed:   func() { c.replacing = make(map[string]int) },
	}
}

// NewAppSetController wires the controller into the world.
func NewAppSetController(w *sim.World, cfg AppSetConfig) *AppSetController {
	if cfg.MaxUnavailable < 1 {
		cfg.MaxUnavailable = 1
	}
	c := &AppSetController{cfg: cfg}
	c.uids = cluster.NewUIDGen("appset")
	c.replacing = make(map[string]int)
	c.Start(w, c, c.spec())
	return c
}

// podHandler queues the app that owns a pod on any change to the pod.
func (c *AppSetController) podHandler() client.EventHandler {
	return client.HandlerFuncs{
		AddFunc:    func(p *cluster.Object) { c.enqueueOwner(p) },
		UpdateFunc: func(_, p *cluster.Object) { c.enqueueOwner(p) },
		DeleteFunc: func(p *cluster.Object) { c.enqueueOwner(p) },
	}
}

func (c *AppSetController) enqueueOwner(p *cluster.Object) {
	if p.Pod == nil || p.Pod.App == "" {
		return
	}
	if _, ok := c.appInf.Get(p.Pod.App); ok {
		c.Queue().Add(p.Pod.App)
	}
}

func (c *AppSetController) scheduleResync() {
	c.After(c.cfg.ResyncInterval, sim.EventTag{Kind: "resync"})
}

// resyncFire is the resync timer body, the one timer the controller owns
// (its queue and its informers own theirs).
func (c *AppSetController) resyncFire(sim.EventTag) {
	for _, app := range c.appInf.ListCached() {
		c.Queue().Add(app.Meta.Name)
	}
	c.scheduleResync()
}

func (c *AppSetController) podName(app string, ordinal int) string {
	return app + "-" + strconv.Itoa(ordinal)
}

func (c *AppSetController) ordinalOf(app, podName string) int {
	rest := strings.TrimPrefix(podName, app+"-")
	n, err := strconv.Atoi(rest)
	if err != nil {
		return -1
	}
	return n
}

// reconcile drives one AppSet toward its spec.
func (c *AppSetController) reconcile(name string) (controller.Result, error) {
	if !c.appInf.Synced() || !c.podInf.Synced() {
		return controller.Result{Requeue: true, RequeueAfter: 50 * sim.Millisecond}, nil
	}
	app, ok := c.appInf.Get(name)
	if !ok || app.AppSet == nil {
		return controller.Result{}, nil
	}
	if app.Terminating() {
		c.teardown(app)
		return controller.Result{}, nil
	}

	pods := c.ownedPods(name)
	live := pods[:0:0]
	for _, p := range pods {
		if !p.Terminating() {
			live = append(live, p)
		}
	}
	desired := app.AppSet.Replicas

	switch {
	case len(live) < desired:
		c.scaleUp(app, live, desired)
	case len(live) > desired:
		c.scaleDown(app, live, desired)
	default:
		if c.rollForward(app, live) {
			c.Rollouts++
		} else {
			c.updateStatus(app, live)
		}
	}
	return controller.Result{}, nil
}

// ownedPods returns this app's pods from the controller's view, sorted by
// ordinal.
func (c *AppSetController) ownedPods(app string) []*cluster.Object {
	var out []*cluster.Object
	for _, p := range c.podInf.ListCached() {
		if p.Pod != nil && p.Pod.App == app && c.ordinalOf(app, p.Meta.Name) >= 0 {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return c.ordinalOf(app, out[i].Meta.Name) < c.ordinalOf(app, out[j].Meta.Name)
	})
	return out
}

func (c *AppSetController) scaleUp(app *cluster.Object, live []*cluster.Object, desired int) {
	have := map[string]bool{}
	for _, p := range live {
		have[p.Meta.Name] = true
	}
	for i := 0; i < desired; i++ {
		name := c.podName(app.Meta.Name, i)
		if have[name] {
			continue
		}
		if _, pending := c.podInf.Get(name); pending {
			continue // terminating predecessor still being finalized
		}
		pod := cluster.NewPod(name, c.uids.Next(), cluster.PodSpec{
			App:   app.Meta.Name,
			Image: app.AppSet.Image,
			Phase: cluster.PodPending,
		})
		pod.Meta.OwnerUID = app.Meta.UID
		c.Conn().Create(pod, func(_ *cluster.Object, err error) {
			if err == nil {
				c.PodCreates++
			}
			c.Queue().AddAfter(app.Meta.Name, 20*sim.Millisecond)
		})
	}
}

func (c *AppSetController) scaleDown(app *cluster.Object, live []*cluster.Object, desired int) {
	// Remove highest ordinals first.
	for i := len(live) - 1; i >= desired; i-- {
		c.markDelete(app.Meta.Name, live[i])
	}
}

// rollForward replaces at most MaxUnavailable pods running an outdated
// image; it reports whether a replacement is in progress.
func (c *AppSetController) rollForward(app *cluster.Object, live []*cluster.Object) bool {
	inFlight := 0
	for _, p := range c.ownedPods(app.Meta.Name) {
		if p.Terminating() {
			inFlight++
		}
	}
	rolled := false
	for _, p := range live {
		if inFlight >= c.cfg.MaxUnavailable {
			break
		}
		if p.Pod.Image == app.AppSet.Image {
			continue
		}
		c.markDelete(app.Meta.Name, p)
		inFlight++
		rolled = true
	}
	return rolled
}

func (c *AppSetController) markDelete(app string, pod *cluster.Object) {
	upd := pod.Clone()
	upd.Meta.DeletionTimestamp = int64(c.World().Now())
	c.Conn().Update(upd, func(_ *cluster.Object, err error) {
		if err != nil {
			c.Queue().AddAfter(app, 50*sim.Millisecond)
			return
		}
		c.PodDeletes++
		// Unscheduled pods have no kubelet finalizer.
		if pod.Pod.NodeName == "" {
			c.Conn().Delete(cluster.KindPod, pod.Meta.Name, 0, nil)
		}
		c.Queue().AddAfter(app, 50*sim.Millisecond)
	})
}

func (c *AppSetController) teardown(app *cluster.Object) {
	for _, p := range c.ownedPods(app.Meta.Name) {
		if !p.Terminating() {
			c.markDelete(app.Meta.Name, p)
		}
	}
}

func (c *AppSetController) updateStatus(app *cluster.Object, live []*cluster.Object) {
	ready := 0
	for _, p := range live {
		if p.Pod.Phase == cluster.PodRunning && p.Pod.Image == app.AppSet.Image {
			ready++
		}
	}
	if app.AppSet.ReadyReplicas == ready {
		return
	}
	upd := app.Clone()
	upd.AppSet.ReadyReplicas = ready
	c.Conn().Update(upd, func(*cluster.Object, error) {})
}
