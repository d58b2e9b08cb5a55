// Package kubelet implements the node agent: it watches the pods bound to
// its node and reconciles the host's running containers against them,
// reporting status back through an apiserver.
//
// A kubelet can synchronize with any one of several apiservers, and it
// re-lists its pods after a restart — from whichever upstream it lands on.
// That pair of behaviours is exactly what Kubernetes-59848 (paper Figure 2)
// exploits: restart, resynchronize against a stale apiserver, and re-run a
// pod that was already migrated elsewhere.
package kubelet

import (
	"sort"
	"strconv"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// Container is a running workload on a host.
type Container struct {
	PodUID string
}

// Host models the machine under a kubelet: its containers outlive kubelet
// *process* crashes (as real containers do) but are lost if the whole node
// is reset.
type Host struct {
	Name string
	// names caches the sorted container-name list (the oracle layer reads
	// it whenever the set changed); nil means stale.
	names []string
	// gen counts the changes to running. changed is the only place it moves
	// and every write to running goes through there.
	gen sim.Generation
	hostState
}

// hostState is the host's container set.
type hostState struct {
	running map[string]Container
}

func (s hostState) clone() hostState {
	s.running = sim.CloneMap(s.running)
	return s
}

// NewHost creates an empty host.
func NewHost(name string) *Host {
	return &Host{Name: name, hostState: hostState{running: make(map[string]Container)}}
}

// Running returns the running containers keyed by pod name (copy).
func (h *Host) Running() map[string]Container {
	out := make(map[string]Container, len(h.running))
	for k, v := range h.running {
		out[k] = v
	}
	return out
}

// RunningNames returns sorted names of running containers. The slice is
// cached until the container set changes — callers must not mutate it.
func (h *Host) RunningNames() []string {
	if h.names == nil {
		h.names = make([]string, 0, len(h.running))
		for n := range h.running {
			h.names = append(h.names, n)
		}
		sort.Strings(h.names)
	}
	return h.names
}

// Generation returns the change counter of the host's container set: the
// UniquePod oracle's declared dependency on this host.
func (h *Host) Generation() *sim.Generation { return &h.gen }

func (h *Host) setContainer(name string, c Container) {
	h.running[name] = c
	h.changed()
}

func (h *Host) removeContainer(name string) {
	delete(h.running, name)
	h.changed()
}

// Reset kills all containers (whole-node failure).
func (h *Host) Reset() {
	h.running = make(map[string]Container)
	h.changed()
}

func (h *Host) changed() {
	h.names = nil
	h.gen.Bump()
}

// Config tunes a kubelet.
type Config struct {
	// NodeName is the cluster node this kubelet manages.
	NodeName string
	// APIServers lists upstream apiservers in failover preference order.
	APIServers []sim.NodeID
	// SyncInterval is the period of the level-triggered pod sync.
	SyncInterval sim.Duration
	// HeartbeatInterval is how often the node object's heartbeat is
	// renewed.
	HeartbeatInterval sim.Duration
	// Rack, Zone, and DC are topology labels advertised on the node
	// object at registration. Empty labels (all existing small-world
	// targets) keep node encodings byte-identical to the pre-topology
	// model.
	Rack string
	Zone string
	DC   string
	// SafeRestartSync, when true, makes the first sync after a (re)start
	// use a quorum list instead of the upstream's cache — the mitigation
	// for the Figure 2 bug. False reproduces stock-Kubernetes behaviour.
	SafeRestartSync bool
}

// capacity is every node's pod capacity, advertised on registration.
const capacity = 16

// DefaultConfig returns production-like settings for a node.
func DefaultConfig(node string, apis []sim.NodeID) Config {
	return Config{
		NodeName:          node,
		APIServers:        apis,
		SyncInterval:      100 * sim.Millisecond,
		HeartbeatInterval: 250 * sim.Millisecond,
	}
}

// Kubelet is the node agent process.
type Kubelet struct {
	controller.Shell
	cfg  Config
	host *Host

	informer *client.Informer
	// beat is beatOn bound once: the heartbeat's Get callback.
	beat func(*cluster.Object, bool, error)
	state
}

// state is everything the kubelet process itself carries from one event to
// the next; its shell and its host carry their own.
type state struct {
	uids   cluster.UIDGen
	apiIdx int
	// restartPending marks that no sync has used verified (quorum) state
	// since the last (re)start; SafeRestartSync refuses cached reconciles
	// while it is set. safeSyncInFlight dedups the verification list.
	// minTrustRev is the revision of the verified quorum list: cached
	// reconciles are refused until the informer has caught up to it, so a
	// restarted kubelet can never act on state older than what it already
	// verified (the full 59848 mitigation).
	restartPending   bool
	safeSyncInFlight bool
	minTrustRev      int64
}

// NodeID returns the kubelet's network ID for a node name.
func NodeID(nodeName string) sim.NodeID { return sim.NodeID("kubelet-" + nodeName) }

// spec declares the kubelet to its shell.
func (k *Kubelet) spec() controller.Spec {
	return controller.Spec{
		ID:       NodeID(k.cfg.NodeName),
		Upstream: func() (sim.NodeID, sim.Duration) { return k.Upstream(), controller.CallTimeout },
		Informers: []controller.InformerSpec{{Into: &k.informer, Kind: cluster.KindPod,
			Cfg: client.InformerConfig{WatchTimeout: 4 * k.cfg.SyncInterval}, Handler: k.podHandler}},
		Fire: k.fire,
		// The node object is asked for before the pods are listed.
		Connected: k.registerNode,
		Booted: func() {
			k.restartPending = true
			k.schedulePeriodicSync()
			k.scheduleHeartbeat()
		},
	}
}

// New wires a kubelet into the world and boots it against its first
// apiserver.
func New(w *sim.World, host *Host, cfg Config) *Kubelet {
	k := &Kubelet{cfg: cfg, host: host, state: state{uids: cluster.NewUIDGen("kubelet-" + cfg.NodeName)}}
	k.beat = k.beatOn
	k.Start(w, k, k.spec())
	return k
}

// fire runs one of the kubelet's own timers.
func (k *Kubelet) fire(tag sim.EventTag) {
	switch tag.Kind {
	case "heartbeat":
		k.heartbeat()
		k.scheduleHeartbeat()
	case "sync":
		k.syncPods()
		k.schedulePeriodicSync()
	case "syncsoon":
		k.syncPods()
	}
}

// Host returns the machine this kubelet manages.
func (k *Kubelet) Host() *Host { return k.host }

// Upstream returns the apiserver the kubelet currently syncs from.
func (k *Kubelet) Upstream() sim.NodeID { return k.cfg.APIServers[k.apiIdx] }

// SetRestartUpstream steers the next (re)boot at the given apiserver if it
// is among the configured upstreams (core.Resteerable).
func (k *Kubelet) SetRestartUpstream(api sim.NodeID) {
	for i, id := range k.cfg.APIServers {
		if id == api {
			k.apiIdx = i
			return
		}
	}
}

// podHandler is the pod informer's handler: any change to a pod asks for a
// sync.
func (k *Kubelet) podHandler() client.EventHandler {
	return client.HandlerFuncs{
		AddFunc:    func(*cluster.Object) { k.scheduleSyncSoon() },
		UpdateFunc: func(_, _ *cluster.Object) { k.scheduleSyncSoon() },
		DeleteFunc: func(*cluster.Object) { k.scheduleSyncSoon() },
	}
}

// registerNode creates or refreshes this node's object.
func (k *Kubelet) registerNode() {
	node := cluster.NewNode(k.cfg.NodeName, k.uids.Next(), cluster.NodeSpec{
		Ready:    true,
		Capacity: capacity,
		Rack:     k.cfg.Rack,
		Zone:     k.cfg.Zone,
		DC:       k.cfg.DC,
	})
	node.Meta.Labels = cluster.Labels{{Name: "heartbeat", Value: strconv.FormatInt(int64(k.World().Now()), 10)}}
	k.Conn().Create(node, func(_ *cluster.Object, err error) {
		if err != nil {
			// Already registered: refresh via heartbeat path instead.
			k.heartbeat()
		}
	})
}

func (k *Kubelet) scheduleHeartbeat() {
	k.After(k.cfg.HeartbeatInterval, sim.EventTag{Kind: "heartbeat"})
}

// heartbeat refreshes the node object's liveness label: it asks for the
// node, and beatOn writes it back.
func (k *Kubelet) heartbeat() {
	k.Conn().Get(cluster.KindNode, k.cfg.NodeName, false, k.beat)
}

// beatOn writes back the node the heartbeat read. The node it is handed
// is the API's and immutable; the update copies only what it changes
// (DESIGN.md §12): a fresh header and label set, and the NodeSpec only if
// the node is not Ready yet. Everything else — the spec of a Ready node,
// any other payload — is shared with the node it came from.
func (k *Kubelet) beatOn(node *cluster.Object, found bool, err error) {
	if err != nil {
		return
	}
	if !found {
		k.registerNode()
		return
	}
	beat := *node
	beat.Meta.Labels = node.Meta.Labels.With("heartbeat", strconv.FormatInt(int64(k.World().Now()), 10))
	if !node.Node.Ready {
		spec := *node.Node
		spec.Ready = true
		beat.Node = &spec
	}
	k.Conn().Update(&beat, func(*cluster.Object, error) {})
}

func (k *Kubelet) schedulePeriodicSync() {
	k.After(k.cfg.SyncInterval, sim.EventTag{Kind: "sync"})
}

func (k *Kubelet) scheduleSyncSoon() {
	k.After(sim.Millisecond, sim.EventTag{Kind: "syncsoon"})
}

// syncPods reconciles host containers against the pods bound to this node
// in the kubelet's view S'. This is the decision point the paper's model
// highlights: the desired set comes from a partial history.
func (k *Kubelet) syncPods() {
	if !k.informer.Synced() {
		return
	}
	if k.cfg.SafeRestartSync {
		if k.restartPending {
			// Fixed variant: until one quorum list has succeeded after a
			// (re)start, never reconcile from the cached view — a stale
			// cache here is exactly the Figure 2 hazard.
			if k.safeSyncInFlight {
				return
			}
			k.safeSyncInFlight = true
			k.Conn().List(cluster.KindPod, true, func(objs []*cluster.Object, rev int64, err error) {
				k.safeSyncInFlight = false
				if err != nil {
					return // retry on next periodic sync
				}
				k.restartPending = false
				k.minTrustRev = rev
				k.reconcile(objs)
			})
			return
		}
		if k.informer.LastRevision() < k.minTrustRev {
			// The cached view predates state this kubelet already verified
			// (the upstream is still catching up): acting on it would be
			// time traveling. Wait for the cache to reach the trust line.
			return
		}
	}
	k.restartPending = false
	k.reconcile(k.informer.ListOnNode(k.cfg.NodeName))
}

// reconcile brings the host in line with the pods among pods that are bound
// to this node: pods is the informer's list of this node's pods, or a
// quorum list of every pod. Both lists are in name order, as is
// RunningNames, so one merge walk pairs each container with its pod and
// the starts go in name order — no map, no sort, nothing allocated when
// nothing changes.
func (k *Kubelet) reconcile(pods []*cluster.Object) {
	// Stop containers that should no longer run here. Collect first: the
	// cached RunningNames slice must not be iterated across removals.
	var stops []string
	i := 0
	for _, name := range k.host.RunningNames() {
		for i < len(pods) && pods[i].Meta.Name < name {
			i++
		}
		if i < len(pods) && pods[i].Meta.Name == name && k.wants(pods[i]) &&
			pods[i].Meta.UID == k.host.running[name].PodUID {
			continue
		}
		stops = append(stops, name)
	}
	for _, name := range stops {
		k.host.removeContainer(name)
	}

	// Start missing containers and report status.
	for _, p := range pods {
		if !k.wants(p) {
			continue
		}
		if c, ok := k.host.running[p.Meta.Name]; ok && c.PodUID == p.Meta.UID {
			continue
		}
		k.host.setContainer(p.Meta.Name, Container{PodUID: p.Meta.UID})
		k.reportRunning(p)
	}

	// Finalize terminating pods bound here: container stopped above, so
	// remove the API object (the kubelet is the deletion finalizer).
	for _, p := range pods {
		if p.Pod == nil || p.Pod.NodeName != k.cfg.NodeName || !p.Terminating() {
			continue
		}
		name := p.Meta.Name
		if _, stillRunning := k.host.running[name]; stillRunning {
			continue
		}
		k.Conn().Delete(cluster.KindPod, name, p.Meta.ResourceVersion, func(error) {})
	}
}

// wants reports whether p should run here: bound to this node and not
// terminating.
func (k *Kubelet) wants(p *cluster.Object) bool {
	return p.Pod != nil && p.Pod.NodeName == k.cfg.NodeName && !p.Terminating()
}

// reportRunning writes pod phase Running back through the apiserver.
func (k *Kubelet) reportRunning(p *cluster.Object) {
	if p.Pod.Phase == cluster.PodRunning {
		return
	}
	obj := p.Clone()
	obj.Pod.Phase = cluster.PodRunning
	k.Conn().Update(obj, func(_ *cluster.Object, err error) {
		// Conflicts are resolved by the next sync; nothing to do here.
	})
}
