// Package infra assembles complete simulated infrastructures: a store, a
// set of apiservers, kubelets with hosts, the scheduler, the volume
// controller, the Cassandra operator, and the oracle runner — the Figure 1
// architecture in one call.
//
// Every experiment execution builds a fresh Cluster from an Options value
// and a seed, runs a workload against it (optionally under a perturbation
// plan), and reads the oracle runner for violations.
package infra

import (
	"fmt"

	"repro/internal/apiserver"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/controllers"
	"repro/internal/kubelet"
	"repro/internal/operators/cassandra"
	"repro/internal/oracle"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/store"
)

// CassandraOptions enables the Cassandra operator, which manages the
// CassandraCluster CR named cassandra.ClusterName.
type CassandraOptions struct {
	Fixes cassandra.Fixes
}

// Options selects the components of a cluster.
type Options struct {
	Seed          int64
	NumAPIServers int
	// Nodes are worker node names; each gets a host and a kubelet.
	Nodes []string
	// KubeletSafeRestart enables the 59848 mitigation on all kubelets.
	KubeletSafeRestart bool
	// EnableScheduler runs the pod scheduler.
	EnableScheduler bool
	// SchedulerEvictFix enables the 56261 fix.
	SchedulerEvictFix bool
	// EnableVolumeController runs the volume releaser.
	EnableVolumeController bool
	// VolumeControllerFix enables the release-on-absent-owner fix.
	VolumeControllerFix bool
	// Cassandra, when non-nil, runs the Cassandra operator.
	Cassandra *CassandraOptions
	// Topology, when non-nil, builds a racked multi-DC world: Nodes (if
	// empty) is generated as Racks × NodesPerRack rack-major names, every
	// process gets a sim.Location, and the network serves
	// topology-derived link latencies.
	Topology *TopologyOptions
	// APIUnindexedServing pins all apiservers to the legacy
	// scan-everything serving paths (byte-identity pinning and E12).
	APIUnindexedServing bool
}

const (
	// oraclePeriod is how often invariants are evaluated.
	oraclePeriod = 10 * sim.Millisecond
	// OraclePatience is the grace period for liveness oracles.
	OraclePatience = 2 * sim.Second
)

// DefaultOptions returns a two-apiserver, two-node cluster with scheduler
// and volume controller, all stock (buggy) variants.
func DefaultOptions() Options {
	return Options{
		Seed:                   1,
		NumAPIServers:          2,
		Nodes:                  []string{"k1", "k2"},
		EnableScheduler:        true,
		EnableVolumeController: true,
	}
}

// Cluster is an assembled simulated infrastructure.
type Cluster struct {
	Opts    Options
	World   *sim.World
	Store   *store.Server
	APIs    []*apiserver.Server
	Hosts   map[string]*kubelet.Host
	Kubelet map[string]*kubelet.Kubelet

	Scheduler *scheduler.Scheduler
	Volume    *controllers.VolumeController
	Cassandra *cassandra.Operator

	Oracles *oracle.Runner
	Admin   *Admin
}

// APIServerID returns the node ID of the i-th apiserver (0-based).
func APIServerID(i int) sim.NodeID { return sim.NodeID(fmt.Sprintf("api-%d", i+1)) }

// StoreID is the store server's node ID.
const StoreID sim.NodeID = "etcd"

// worldConfig is the world every cluster lives in, built or restored.
func worldConfig(seed int64) sim.WorldConfig {
	return sim.WorldConfig{Seed: seed, Latency: sim.Millisecond, Jitter: sim.Millisecond / 2}
}

// newCluster returns a cluster of no components in world w.
func newCluster(opts Options, w *sim.World) *Cluster {
	return &Cluster{
		Opts:    opts,
		World:   w,
		Hosts:   make(map[string]*kubelet.Host),
		Kubelet: make(map[string]*kubelet.Kubelet),
		Oracles: oracle.NewRunner(),
	}
}

// New builds a cluster.
func New(opts Options) *Cluster {
	if opts.NumAPIServers < 1 {
		opts.NumAPIServers = 1
	}
	topo := opts.Topology
	if topo != nil && len(opts.Nodes) == 0 {
		opts.Nodes = topo.NodeNames()
	}
	w := sim.NewWorld(worldConfig(opts.Seed))
	if topo != nil {
		w.Network().SetTopologyLatency(sim.TopologyLatency{
			IntraRack: intraRackLatency, IntraDC: intraDCLatency, CrossDC: crossDCLatency})
	}
	c := newCluster(opts, w)

	c.Store = store.NewServer(w, StoreID, store.New())

	var apiIDs []sim.NodeID
	decodes := apiserver.NewDecodes()
	for i := 0; i < opts.NumAPIServers; i++ {
		cfg := apiserver.DefaultConfig(StoreID)
		cfg.UnindexedServing = opts.APIUnindexedServing
		api := apiserver.New(w, APIServerID(i), cfg)
		api.ShareDecodes(decodes)
		c.APIs = append(c.APIs, api)
		apiIDs = append(apiIDs, api.ID())
	}
	if topo != nil {
		for i, api := range c.APIs {
			w.Network().SetLocation(api.ID(), topo.locationOfRack(i%topo.Racks))
		}
	}

	for i, node := range opts.Nodes {
		host := kubelet.NewHost(node)
		cfg := kubelet.DefaultConfig(node, apiIDs)
		cfg.SafeRestartSync = opts.KubeletSafeRestart
		if topo != nil {
			rack := i / topo.NodesPerRack
			loc := topo.locationOfRack(rack)
			cfg.Rack, cfg.Zone, cfg.DC = loc.Rack, loc.Zone, loc.DC
			if len(apiIDs) > 1 {
				// Prefer the rack's own apiserver; keep the rest in the
				// usual order as failover.
				p := rack % len(apiIDs)
				order := make([]sim.NodeID, 0, len(apiIDs))
				order = append(order, apiIDs[p])
				for j, id := range apiIDs {
					if j != p {
						order = append(order, id)
					}
				}
				cfg.APIServers = order
			}
			w.Network().SetLocation(kubelet.NodeID(node), loc)
		}
		c.Hosts[node] = host
		c.Kubelet[node] = kubelet.New(w, host, cfg)
	}

	if opts.EnableScheduler {
		cfg := scheduler.DefaultConfig(apiIDs[0])
		cfg.EvictUnknownNodes = opts.SchedulerEvictFix
		c.Scheduler = scheduler.New(w, cfg)
	}
	if opts.EnableVolumeController {
		cfg := controllers.DefaultVolumeConfig(apiIDs[0])
		cfg.ReleaseOnAbsentOwner = opts.VolumeControllerFix
		c.Volume = controllers.NewVolumeController(w, cfg)
	}
	if opts.Cassandra != nil {
		cfg := cassandra.DefaultConfig(apiIDs[0])
		cfg.Fixes = opts.Cassandra.Fixes
		c.Cassandra = cassandra.New(w, cfg)
	}

	if topo != nil {
		// Every process without an explicit placement — the store, the
		// scheduler, controller, operator, admin — lives in the control
		// rack of the first DC.
		ctrl := controlLocation()
		for _, id := range w.Network().Nodes() {
			if w.Network().LocationOf(id).IsZero() {
				w.Network().SetLocation(id, ctrl)
			}
		}
	}

	c.Admin = newAdmin(c, client.NewConn(w, AdminID, APIServerID(0), 300*sim.Millisecond), cluster.NewUIDGen("admin"))
	c.installOracles()
	// Let apiservers/informers complete their initial sync before the
	// workload starts.
	w.Kernel().RunFor(200 * sim.Millisecond)
	return c
}

func (c *Cluster) installOracles() {
	c.addOracles()
	c.Oracles.InstallPeriodic(c.World, oraclePeriod)
}

// addOracles registers the oracle set for this cluster's options, each
// oracle with the ground truth it reads: the runner evaluates it only on a
// tick by which one of those generations has moved or one of its waits has
// run out (DESIGN.md §5, "Oracle dependency rule"). The order is the order
// violations found on the same tick are reported in. Oracles that wait keep
// their clocks in the runner's first-seen table, so the restore path
// registers the same set on a fresh runner and Runner.RestoreFrom alone
// makes it the captured one.
func (c *Cluster) addOracles() {
	st := c.Store.Store()
	kind := func(k cluster.Kind) *sim.Generation { return st.Track(cluster.KindPrefix(k)).Generation() }
	pods, nodes, pvcs := kind(cluster.KindPod), kind(cluster.KindNode), kind(cluster.KindPVC)
	var hosts []*kubelet.Host
	var containers []*sim.Generation
	for _, node := range c.Opts.Nodes {
		hosts = append(hosts, c.Hosts[node])
		containers = append(containers, c.Hosts[node].Generation())
	}
	if len(hosts) > 0 {
		c.Oracles.Add(oracle.UniquePod(hosts), containers...)
	}
	if c.Opts.EnableScheduler {
		c.Oracles.Add(oracle.SchedulerProgress(c.Oracles, st, OraclePatience), pods, nodes)
	}
	if c.Opts.EnableVolumeController || c.Opts.Cassandra != nil {
		c.Oracles.Add(oracle.NoOrphanPVC(c.Oracles, st, OraclePatience), pods, pvcs)
	}
	if c.Opts.Cassandra != nil {
		c.Oracles.Add(oracle.ScaleDownCompletes(c.Oracles, st, cassandra.ClusterName, OraclePatience),
			kind(cluster.KindCassandra), pods)
		oracle.InstallNoLivePVCDeletion(st, c.Oracles)
	}
}

// shells returns the lifecycle shell of every component that holds an API
// connection, in the order New builds them.
func (c *Cluster) shells() []*controller.Shell {
	out := make([]*controller.Shell, 0, len(c.Opts.Nodes)+6)
	for _, node := range c.Opts.Nodes {
		out = append(out, &c.Kubelet[node].Shell)
	}
	if c.Scheduler != nil {
		out = append(out, &c.Scheduler.Shell)
	}
	if c.Volume != nil {
		out = append(out, &c.Volume.Shell)
	}
	if c.Cassandra != nil {
		out = append(out, &c.Cassandra.Shell)
	}
	return out
}

// Conns returns the API connection of every component that holds one, plus
// the admin's, in a fixed order.
func (c *Cluster) Conns() []*client.Conn {
	shells := c.shells()
	out := make([]*client.Conn, 0, len(shells)+1)
	for _, sh := range shells {
		out = append(out, sh.Conn())
	}
	return append(out, c.Admin.Conn())
}

// RunFor advances the simulation.
func (c *Cluster) RunFor(d sim.Duration) { c.World.Kernel().RunFor(d) }

// GroundTruth lists objects of a kind straight from the store.
func (c *Cluster) GroundTruth(kind cluster.Kind) []*cluster.Object {
	kvs, _ := c.Store.Store().Range(cluster.KindPrefix(kind))
	out := make([]*cluster.Object, 0, len(kvs))
	for _, kv := range kvs {
		obj, err := cluster.Decode(kv.Value, kv.ModRevision)
		if err != nil {
			continue
		}
		out = append(out, obj)
	}
	return out
}

// Violations returns all oracle violations so far.
func (c *Cluster) Violations() []oracle.Violation { return c.Oracles.Violations() }
