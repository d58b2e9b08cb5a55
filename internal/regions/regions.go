// Package regions implements the HBASE-3136/3137 analog (paper §4.2.1): an
// assignment manager migrates regions (shards) between region servers by
// performing transitions against region objects held in the store, read
// through an apiserver cache.
//
// The manager supports three modes mirroring the issue history:
//
//   - ModeStaleBlind (HBASE-3136 as filed): transitions read the cached
//     view and write unguarded. A stale read directs the "close" at the
//     wrong previous owner, so the true owner never closes → two region
//     servers serve the same region (atomicity broken).
//   - ModeSyncBeforeCAS (the HBASE-3136 fix): every transition first syncs
//     (quorum read) — safe, but every operation pays the store round-trip,
//     the performance regression reported as HBASE-3137.
//   - ModeOptimisticCAS (HBASE-3137's proposal): cached reads with guarded
//     (compare-and-swap) writes — safe and fast, at the cost of retries
//     when the cache was stale.
package regions

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/sim"
)

// Mode selects the transition protocol.
type Mode int

const (
	// ModeStaleBlind reproduces HBASE-3136: cached reads, unguarded writes.
	ModeStaleBlind Mode = iota
	// ModeSyncBeforeCAS reproduces the HBASE-3136 fix: quorum read first.
	ModeSyncBeforeCAS
	// ModeOptimisticCAS reproduces HBASE-3137's optimistic proposal:
	// cached reads with ResourceVersion-guarded writes and retry.
	ModeOptimisticCAS
)

func (m Mode) String() string {
	switch m {
	case ModeStaleBlind:
		return "stale-blind"
	case ModeSyncBeforeCAS:
		return "sync-before-cas"
	case ModeOptimisticCAS:
		return "optimistic-cas"
	default:
		return "unknown"
	}
}

// RegionServer is a worker that serves regions. Its owned set is the
// ground truth DualOwners checks.
type RegionServer struct {
	id    sim.NodeID
	owned map[string]bool
}

// ServerID returns the network ID for region server name.
func ServerID(name string) sim.NodeID { return sim.NodeID("rs-" + name) }

// NewRegionServer wires a region server into the world.
func NewRegionServer(w *sim.World, name string) *RegionServer {
	s := &RegionServer{id: ServerID(name), owned: make(map[string]bool)}
	w.Join(s, nil)
	return s
}

// ID implements sim.Process.
func (s *RegionServer) ID() sim.NodeID { return s.id }

// Crash implements sim.Process: what the server serves is the world's to
// stop (no message reaches a down node), and the owned set survives for
// Restart to close.
func (s *RegionServer) Crash() {}

// Restart implements sim.Process; a restarted server serves nothing until
// told to open regions again.
func (s *RegionServer) Restart() {
	clear(s.owned)
}

// Owned returns the regions this server currently serves, sorted.
func (s *RegionServer) Owned() []string {
	out := make([]string, 0, len(s.owned))
	for r := range s.owned {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// openCmd / closeCmd are manager->server commands.
type openCmd struct{ Region string }
type closeCmd struct{ Region string }

// HandleMessage implements sim.Handler.
func (s *RegionServer) HandleMessage(m *sim.Message) {
	switch c := m.Payload.(type) {
	case *openCmd:
		s.owned[c.Region] = true
	case *closeCmd:
		delete(s.owned, c.Region)
	}
}

// ManagerConfig tunes the assignment manager.
type ManagerConfig struct {
	// APIServer is the manager's upstream.
	APIServer sim.NodeID
	// Mode selects the transition protocol.
	Mode Mode
}

// maxRetries bounds optimistic-CAS retries per transition.
const maxRetries = 5

// Manager is the assignment manager performing region transitions.
type Manager struct {
	controller.Shell
	cfg ManagerConfig
	managerState
}

// managerState is everything the manager itself carries from one event to
// the next; its shell carries its connection's.
type managerState struct {
	// Metrics.
	CASFailures int // guarded writes rejected (staleness caught safely)
	Retries     int
}

// ManagerID is the manager's network identity.
const ManagerID sim.NodeID = "region-manager"

// spec declares the manager to its shell: a connection, and nothing on it.
// It runs no informers and owns no timers: its move delays are closures.
// Its calls wait without a timeout (0).
func (m *Manager) spec() controller.Spec {
	return controller.Spec{
		ID:       ManagerID,
		Upstream: func() (sim.NodeID, sim.Duration) { return m.cfg.APIServer, 0 },
	}
}

// NewManager wires the assignment manager into the world.
func NewManager(w *sim.World, cfg ManagerConfig) *Manager {
	m := &Manager{cfg: cfg}
	m.Start(w, m, m.spec())
	return m
}

// CreateRegion registers a region served by owner and tells the server to
// open it. done is invoked when the object is stored.
func (m *Manager) CreateRegion(name, owner string, done func(error)) {
	obj := cluster.NewRegion(name, "region-"+name, cluster.RegionSpec{Owner: owner, State: cluster.RegionOnline})
	m.Conn().Create(obj, func(_ *cluster.Object, err error) {
		if err == nil {
			m.World().Network().Send(ManagerID, ServerID(owner), "region-open", &openCmd{Region: name})
		}
		done(err)
	})
}

// Move transitions region to a new owner. done receives the outcome:
// nil on success (including safe CAS-failure abort paths that were retried
// out), or the final error.
func (m *Manager) Move(region, newOwner string, done func(error)) {
	m.moveAttempt(region, newOwner, 0, done)
}

func (m *Manager) moveAttempt(region, newOwner string, attempt int, done func(error)) {
	quorum := m.cfg.Mode == ModeSyncBeforeCAS
	// The move's two delays are closures over its continuation, so each asks
	// the kernel fact itself whether the boot that armed it is still the
	// live one: the connection this attempt runs on.
	boot := m.Conn()
	m.Conn().Get(cluster.KindRegion, region, quorum, func(obj *cluster.Object, found bool, err error) {
		if err != nil || !found {
			done(errOr(err, errNotFound))
			return
		}
		prevOwner := obj.Region.Owner // possibly stale!
		upd := obj.Clone()
		upd.Region.Owner = newOwner
		upd.Region.State = cluster.RegionOnline
		if m.cfg.Mode == ModeStaleBlind {
			upd.Meta.ResourceVersion = 0 // unguarded write
		}
		m.Conn().Update(upd, func(_ *cluster.Object, uerr error) {
			if uerr != nil {
				m.CASFailures++
				if m.cfg.Mode == ModeOptimisticCAS && attempt+1 < maxRetries {
					m.Retries++
					// Refresh (the failed CAS proves our view was stale;
					// sync once) and retry.
					m.World().Kernel().Schedule(5*sim.Millisecond, func() {
						if !boot.Retired() {
							m.moveAttempt(region, newOwner, attempt+1, done)
						}
					})
					return
				}
				done(uerr)
				return
			}
			// Commit succeeded: close the previous owner (as read — the
			// stale-blind mode may aim this at the wrong server), then
			// open the new one after the close has had time to land
			// (close-before-open discipline; the links are FIFO but close
			// and open travel different links).
			if prevOwner != "" && prevOwner != newOwner {
				m.World().Network().Send(ManagerID, ServerID(prevOwner), "region-close", &closeCmd{Region: region})
			}
			m.World().Kernel().Schedule(3*sim.Millisecond, func() {
				if boot.Retired() {
					return
				}
				m.World().Network().Send(ManagerID, ServerID(newOwner), "region-open", &openCmd{Region: region})
				done(nil)
			})
		})
	})
}

var errNotFound = errNotFoundType{}

type errNotFoundType struct{}

func (errNotFoundType) Error() string { return "regions: region not found" }

func errOr(err error, fallback error) error {
	if err != nil {
		return err
	}
	return fallback
}

// DualOwners returns regions currently served by more than one of the
// given servers: the HBASE-3136 guarantee, checked on ground truth.
func DualOwners(servers []*RegionServer) map[string][]string {
	owners := make(map[string][]string)
	for _, s := range servers {
		for _, r := range s.Owned() {
			owners[r] = append(owners[r], string(s.ID()))
		}
	}
	out := make(map[string][]string)
	for r, os := range owners {
		if len(os) > 1 {
			sort.Strings(os)
			out[r] = os
		}
	}
	return out
}
