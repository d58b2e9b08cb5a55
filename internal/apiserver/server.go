package apiserver

import (
	"bytes"
	"errors"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/history"
	"repro/internal/sim"
	"repro/internal/store"
)

// ErrNotReady is returned while the apiserver is (re)building its watch
// cache from the store; clients retry.
var ErrNotReady = errors.New("apiserver: not ready, cache syncing")

// Config tunes an apiserver.
type Config struct {
	// StoreNode is the store server this apiserver syncs from.
	StoreNode sim.NodeID
	// WindowSize bounds the retained event window used to serve client
	// watch backlogs; older start revisions get ErrTooOldResourceVersion.
	WindowSize int
	// ResyncInterval is how often the apiserver polls the store for missed
	// events when the watch stream is silent. Larger values widen the
	// staleness windows failures can create.
	ResyncInterval sim.Duration
	// UnindexedServing routes relay, cached lists, and cached gets
	// through the legacy paths (scan all subs per event, re-sort and
	// re-decode the whole cache per list). Kept for byte-identity pinning
	// tests and the E12 indexed-vs-unindexed benchmark; production config
	// leaves it false.
	UnindexedServing bool
}

// DefaultConfig returns production-like settings.
func DefaultConfig(storeNode sim.NodeID) Config {
	return Config{
		StoreNode:      storeNode,
		WindowSize:     1024,
		ResyncInterval: 500 * sim.Millisecond,
	}
}

// storeTimeout bounds calls to the store.
const storeTimeout = 200 * sim.Millisecond

type clientSub struct {
	subID    uint64
	client   sim.NodeID
	kind     cluster.Kind
	lastSent int64 // highest revision pushed
}

// decodedObj is one entry of a ModRevision-keyed decode memo: obj is
// the decode of the cached value at revision rev. Same discipline as the
// store layer's memo (store.go): a pure cache, never part of snapshots or
// equality, self-invalidating by revision compare. The memoized object is
// THE object for (cluster, key, rev): watch pushes, list and get replies,
// informer caches and handler arguments all carry this pointer, so nobody
// may mutate it — a holder that wants to change it Clones first
// (DESIGN.md, "Object ownership").
type decodedObj struct {
	rev int64
	obj *cluster.Object
}

// Decodes is one cluster's memo of the objects its committed revisions
// stand for: the two newest of each key, and the newest object an apiserver
// of the cluster wrote to the key with the bytes it encoded. Every
// apiserver of the cluster asks it for a pushed revision, so a revision is
// turned into an object once per cluster, not once per apiserver, and a
// revision written through one of them is not decoded at all: its object is
// the writer's, stamped with the commit's revision on a shallow copy (the
// writer's object is shared as it stands, and never restamped). The
// revision before the newest is kept for the apiserver that lags its peers
// by one write of the key, as a far one does when the writer's own stream
// is fast (a pod's creation, read back by its kubelet through the near
// apiserver and updated). It is a pure function of committed bytes and of
// the objects written: it is never captured (a restored cluster starts with
// an empty one and refills it on miss), a write is matched to a commit only
// on the key and the whole value, and an apiserver looks up only a (key,
// revision) whose bytes it has itself received. One cluster's apiservers
// share one; two clusters never do.
type Decodes struct {
	m map[string]*memoEntry
}

// memoEntry is one key's line in a Decodes: the objects of its newest
// revision and of the one before, and wrote, the newest exact object an
// apiserver wrote to the key, with data its encoding (cluster.EncodeExact).
// A key's line is made once and changed in place.
type memoEntry struct {
	cur, prev decodedObj
	data      []byte
	wrote     *cluster.Object
}

// NewDecodes returns an empty memo.
func NewDecodes() *Decodes { return &Decodes{m: make(map[string]*memoEntry)} }

// line returns key's line, making it if there is none.
func (d *Decodes) line(key string) *memoEntry {
	e := d.m[key]
	if e == nil {
		e = new(memoEntry)
		d.m[key] = e
	}
	return e
}

// lookup returns the memoized object of key at rev. A nil memo holds
// nothing.
func (d *Decodes) lookup(key string, rev int64) (*cluster.Object, bool) {
	if d == nil {
		return nil, false
	}
	if e := d.m[key]; e != nil {
		return e.at(rev)
	}
	return nil, false
}

// at returns the line's object of revision rev, if it holds one.
func (e *memoEntry) at(rev int64) (*cluster.Object, bool) {
	switch rev {
	case e.cur.rev:
		return e.cur.obj, e.cur.obj != nil
	case e.prev.rev:
		return e.prev.obj, e.prev.obj != nil
	}
	return nil, false
}

// wrote records that obj, which Decode gives back from data, is what an
// apiserver of the cluster is writing to key. The caller has handed obj
// over, as Conn.Update does: nobody writes to it again.
func (d *Decodes) wrote(key string, data []byte, obj *cluster.Object) {
	if d == nil {
		return
	}
	e := d.line(key)
	e.data, e.wrote = data, obj
}

// object returns the object of key's committed value at rev: the memo's;
// else, if the value is the bytes an apiserver of the cluster wrote to the
// key, a copy of the writer's object stamped with rev; else the value's
// decode, which decoded reports. What it made becomes the key's newest
// revision if it is newer than the memo's; an apiserver lagging by more
// than one revision makes an older one for itself and leaves the line
// alone. A nil memo decodes every value.
func (d *Decodes) object(key string, rev int64, value []byte) (obj *cluster.Object, decoded bool, err error) {
	if d == nil {
		obj, err = cluster.Decode(value, rev)
		return obj, true, err
	}
	e := d.line(key)
	if obj, ok := e.at(rev); ok {
		return obj, false, nil
	}
	if e.wrote != nil && bytes.Equal(e.data, value) {
		c := *e.wrote
		c.Meta.ResourceVersion = rev
		obj = &c
	} else {
		if obj, err = cluster.Decode(value, rev); err != nil {
			return nil, true, err
		}
		decoded = true
	}
	if e.cur.rev < rev {
		e.prev, e.cur = e.cur, decodedObj{rev: rev, obj: obj}
	}
	return obj, decoded, nil
}

// ServeStats counts serving-path work. Pure observability — never part
// of snapshots or byte-identity comparisons. E12 uses the relay counters
// to demonstrate per-event relay cost is O(interested subs), not
// O(all subs).
type ServeStats struct {
	RelayEvents     uint64 // committed events offered to relay
	RelaySubVisits  uint64 // subscriber entries examined across all relays
	RelaySends      uint64 // watch push messages emitted
	ListServed      uint64 // cached list requests answered
	ListKeysScanned uint64 // cache keys visited answering cached lists
	DecodeHits      uint64 // cached-read decodes answered from the memo
	DecodeMisses    uint64 // cached-read decodes that ran cluster.Decode
	ApplyDecodes    uint64 // committed revisions applyOne decoded: neither the memo nor a writer had their object
	WindowTrims     uint64 // head advances of the retained event window
	WindowCompacts  uint64 // WindowSize-event spans of dead prefix the window has released
}

// Server is one apiserver instance: a watch cache over the store plus a
// typed API. Multiple Servers can sync from the same store, and each can
// lag independently — the precondition for time-travel bugs.
type Server struct {
	id     sim.NodeID
	world  *sim.World
	cfg    Config
	timers *sim.Timers // the world's: a boot is its owner

	rpcSrv *sim.RPCServer
	rpcCl  *sim.RPCClient

	subsOrder  []string                       // cached sorted sub keys; nil means stale
	subsByKind map[cluster.Kind][]relayTarget // per-kind relay index over subsOrder; nil means stale
	kindKeys   map[cluster.Kind][]string      // per-kind sorted cache keys, maintained incrementally
	kindBroken bool                           // true disables kindKeys (unparseable key seen); lists fall back to full scans
	decoded    map[string]decodedObj          // ModRevision-keyed decode memo; pure cache, excluded from snapshots
	shared     *Decodes                       // the cluster's decode memo (ShareDecodes); nil decodes alone
	stats      ServeStats

	// windowRev holds, per kind, a revision no older than the newest event
	// of that kind in the window (after a trim it may be newer than all of
	// them, never older); nil means not built. A Watch starting at or past
	// it has no backlog.
	windowRev map[cluster.Kind]int64

	// pushSlab and msgSlab arena-allocate the per-subscriber single-event
	// push slices and the push payloads that carry them (relay sends one
	// per subscriber per event — the hottest allocations on the watch path);
	// getSlab the cached reads' replies.
	pushSlab sim.Slab[WatchEvent]
	msgSlab  sim.Slab[WatchPushMsg]
	getSlab  sim.Slab[GetResponse]
	state
}

// state is everything the server's watch cache carries from one event to
// the next. The retained event window is shared copy-on-write with every
// snapshot (history.Log: a fork copies at most the chunk it appends to);
// cached KVs share their value bytes — the apiserver never mutates a cached
// value in place, it installs fresh KV structs.
type state struct {
	ready bool

	cache       map[string]store.KV `snap:"shared-elems"`
	cachedRev   int64
	window      history.Log[history.Event] `snap:"shared"`
	minStartRev int64                      // newest revision no longer replayable from the window
	subs        map[string]clientSub
	storeSubID  uint64
	lastEventAt sim.Time
}

// clone re-makes the maps and forks the window.
func (s state) clone() state {
	s.cache = sim.CloneMap(s.cache)
	s.subs = sim.CloneMap(s.subs)
	s.window = s.window.Fork()
	return s
}

// wire registers an apiserver with no state in the world: what New
// bootstraps and Restore assigns a captured state to.
func wire(w *sim.World, id sim.NodeID, cfg Config) *Server {
	s := &Server{id: id, world: w, cfg: cfg}
	s.rpcSrv = sim.NewRPCServer(w.Network())
	s.rpcCl = sim.NewRPCClient(w.Network(), id, storeTimeout)
	s.register()
	s.timers = w.Join(s, s.resyncFire)
	return s
}

// New creates and wires an apiserver into the world and begins its initial
// cache sync.
func New(w *sim.World, id sim.NodeID, cfg Config) *Server {
	s := wire(w, id, cfg)
	s.cache = make(map[string]store.KV)
	s.subs = make(map[string]clientSub)
	s.kindKeys = make(map[cluster.Kind][]string)
	s.bootstrap()
	s.scheduleResync()
	return s
}

// ShareDecodes hands the server its cluster's decode memo: applyOne asks
// it before decoding a pushed revision. infra wires one per cluster, built
// or restored.
func (s *Server) ShareDecodes(d *Decodes) { s.shared = d }

// ID returns the apiserver's node ID.
func (s *Server) ID() sim.NodeID { return s.id }

// Ready reports whether the watch cache is synced and serving.
func (s *Server) Ready() bool { return s.ready }

// CachedRevision returns the cache frontier (the apiserver's H' position).
func (s *Server) CachedRevision() int64 { return s.cachedRev }

// Crash implements sim.Process: the watch cache is volatile.
func (s *Server) Crash() {
	s.ready = false
	s.rpcCl.Reset()
	s.cache = make(map[string]store.KV)
	s.window = history.Log[history.Event]{}
	s.windowRev = nil
	s.cachedRev = 0
	s.subs = make(map[string]clientSub)
	s.subsOrder = nil
	s.subsByKind = nil
	s.kindKeys = make(map[cluster.Kind][]string)
	s.kindBroken = false
	s.decoded = nil
}

// Restart implements sim.Process: rebuild the cache from the store.
func (s *Server) Restart() {
	s.bootstrap()
	s.scheduleResync()
}

// HandleMessage implements sim.Handler.
func (s *Server) HandleMessage(m *sim.Message) {
	if s.rpcCl.HandleResponse(m) {
		return
	}
	if push, ok := m.Payload.(*store.WatchPush); ok {
		s.onStoreEvents(push)
		return
	}
	s.rpcSrv.HandleRequest(m)
}

// bootstrap lists the full registry from the store, then watches from the
// listed revision. Retries on timeout.
func (s *Server) bootstrap() {
	s.rpcCl.Call(s.cfg.StoreNode, store.MethodRange, &store.RangeRequest{Prefix: cluster.RegistryPrefix},
		func(body any, err error) {
			if err != nil {
				s.retryBootstrap()
				return
			}
			resp := body.(*store.RangeResponse)
			s.cache = make(map[string]store.KV, len(resp.KVs))
			for _, kv := range resp.KVs {
				s.cache[kv.Key] = kv
			}
			s.rebuildKindIndex()
			s.cachedRev = resp.Revision
			s.window = history.Log[history.Event]{}
			s.windowRev = nil
			// Events before the relist revision cannot be replayed to
			// clients anymore.
			s.minStartRev = resp.Revision
			s.startStoreWatch()
		})
}

// retryBootstrap relists one RPC timeout from now. The retry is a closure,
// not a tag — a snapshot must not be taken while one is pending — so it is
// guarded by the kernel fact itself: the owner of the boot that armed it.
func (s *Server) retryBootstrap() {
	boot := s.timers.Owner()
	s.world.Kernel().Schedule(storeTimeout, func() {
		if !boot.Retired() {
			s.bootstrap()
		}
	})
}

func (s *Server) startStoreWatch() {
	s.storeSubID++
	subID := s.storeSubID
	s.rpcCl.Call(s.cfg.StoreNode, store.MethodWatch,
		&store.WatchRequest{Prefix: cluster.RegistryPrefix, StartRev: s.cachedRev, SubID: subID},
		func(body any, err error) {
			if err != nil {
				// Compacted or timeout: full relist.
				s.retryBootstrap()
				return
			}
			s.ready = true
			s.lastEventAt = s.world.Now()
		})
}

// onStoreEvents folds a store push into the cache and relays to clients.
func (s *Server) onStoreEvents(push *store.WatchPush) {
	if push.SubID != s.storeSubID {
		return // stale stream from before a restart/rewatch
	}
	s.applyEvents(push.Events, true)
}

func (s *Server) applyEvents(events []history.Event, allowRecover bool) {
	for _, e := range events {
		if e.Revision <= s.cachedRev {
			continue // duplicate
		}
		if e.Revision > s.cachedRev+1 && allowRecover {
			// Gap detected: pull the missing span, then the rest.
			s.recoverGap()
			return
		}
		s.applyOne(e)
	}
	s.lastEventAt = s.world.Now()
}

// recoverGap pulls every event past the cache frontier: the pulled span is
// contiguous, so it covers whatever the gapped push still held.
func (s *Server) recoverGap() {
	s.rpcCl.Call(s.cfg.StoreNode, store.MethodEventsSince,
		&store.EventsSinceRequest{Prefix: cluster.RegistryPrefix, Rev: s.cachedRev},
		func(body any, err error) {
			if err != nil {
				// Compacted or unreachable: schedule a full relist; apply
				// nothing now (the resync timer also backstops this).
				if remote := (sim.ErrRemote{}); errors.As(err, &remote) && remote.Msg == store.ErrCompacted.Error() {
					s.bootstrap()
				}
				return
			}
			s.applyEvents(body.(*store.EventsSinceResponse).Events, false)
		})
}

func (s *Server) applyOne(e history.Event) {
	var relay WatchEvent
	switch e.Type {
	case history.Put:
		prev, existed := s.cache[e.Key]
		kv := store.KV{Key: e.Key, Value: e.Value, ModRevision: e.Revision}
		if existed && e.PrevRev != 0 {
			kv.CreateRevision = prev.CreateRevision
			kv.Version = prev.Version + 1
		} else {
			kv.CreateRevision = e.Revision
			kv.Version = 1
		}
		s.cache[e.Key] = kv
		if !existed {
			s.kindIndexInsert(e.Key)
		}
		// The one object of this revision in this cluster: cached reads,
		// every subscriber and the other apiservers share it.
		obj, decoded, err := s.shared.object(e.Key, e.Revision, e.Value)
		if decoded {
			s.stats.ApplyDecodes++
		}
		if err != nil {
			return
		}
		s.memoize(e.Key, e.Revision, obj)
		if kv.Version == 1 {
			relay = WatchEvent{Type: Added, Object: obj, Revision: e.Revision}
		} else {
			relay = WatchEvent{Type: Modified, Object: obj, Revision: e.Revision}
		}
	case history.Delete:
		prev, existed := s.cache[e.Key]
		delete(s.cache, e.Key)
		if existed {
			s.kindIndexRemove(e.Key)
		}
		// Tombstone: the last known state stamped with the deletion
		// revision. The memoized previous revision is immutable, so a
		// shallow copy with a new ResourceVersion is enough.
		var obj *cluster.Object
		if d, ok := s.decoded[e.Key]; ok && existed && d.rev == prev.ModRevision {
			t := *d.obj
			t.Meta.ResourceVersion = e.Revision
			obj = &t
		} else if existed {
			if o, err := cluster.Decode(prev.Value, e.Revision); err == nil {
				obj = o
			}
		}
		delete(s.decoded, e.Key)
		if obj == nil {
			// Deletion of a key we never cached: synthesize a tombstone
			// with only the identity filled in.
			kind, name, err := cluster.ParseKey(e.Key)
			if err != nil {
				return
			}
			obj = &cluster.Object{Meta: cluster.Meta{Kind: kind, Name: name, ResourceVersion: e.Revision}}
		}
		relay = WatchEvent{Type: Deleted, Object: obj, Revision: e.Revision}
	}
	s.cachedRev = e.Revision
	s.window.Append(e)
	if s.windowRev != nil {
		if kind, ok := windowKind(e.Key); ok {
			s.windowRev[kind] = e.Revision
		}
	}
	if s.cfg.WindowSize > 0 && s.window.Len() > s.cfg.WindowSize {
		// Trim: the head advances past the oldest event, and a chunk it
		// has passed is released whole — nothing is copied.
		s.minStartRev = s.window.At(0).Revision
		s.window.DropFront(1)
		s.stats.WindowTrims++
		if s.window.Offset()%s.cfg.WindowSize == 0 {
			s.stats.WindowCompacts++
		}
	}
	s.relay(relay, e.Key)
}

func (s *Server) relay(ev WatchEvent, key string) {
	kind, _, err := cluster.ParseKey(key)
	if err != nil {
		return
	}
	s.stats.RelayEvents++
	if s.cfg.UnindexedServing {
		// Legacy path: every committed event scans all subscribers and
		// filters by kind — O(all subs) per event.
		for _, sk := range s.sortedSubs() {
			sub, ok := s.subs[sk]
			s.stats.RelaySubVisits++
			if !ok || sub.kind != kind || ev.Revision <= sub.lastSent {
				continue
			}
			s.relayTo(sk, sub, s.world.Network().Route(s.id, sub.client), ev)
		}
		return
	}
	targets := s.subsOfKind(kind)
	for i := range targets {
		rt := &targets[i]
		s.stats.RelaySubVisits++
		if ev.Revision <= rt.lastSent {
			continue
		}
		rt.lastSent = ev.Revision
		s.push(rt.subID, rt.route, ev)
	}
}

// relayTo delivers one event to one subscriber on its route and advances
// its high-water mark in subs: the unindexed path's.
func (s *Server) relayTo(key string, sub clientSub, route sim.Route, ev WatchEvent) {
	sub.lastSent = ev.Revision
	s.subs[key] = sub
	s.push(sub.subID, route, ev)
}

// push sends one event to subscription subID on its route.
func (s *Server) push(subID uint64, route sim.Route, ev WatchEvent) {
	s.stats.RelaySends++
	msg := &s.msgSlab.One(WatchPushMsg{SubID: subID, Events: s.pushSlab.One(ev)})[0]
	s.world.Network().SendOn(route, KindWatchPush, msg)
}

// relayTarget is one entry of the relay index: a subscription's key in
// subs, its ID, the route to its client, resolved when the index is built,
// and its high-water mark. While the index stands the mark is kept here,
// where relay reaches it with no map operation, and subs' copy of it lags;
// settle writes the marks back before anything reads subs for them.
type relayTarget struct {
	key      string
	subID    uint64
	route    sim.Route
	lastSent int64
}

// settle writes the relay index's high-water marks back into subs, which
// is what a snapshot captures and a rebuilt index starts from.
func (s *Server) settle() {
	for _, targets := range s.subsByKind {
		for _, rt := range targets {
			sub := s.subs[rt.key]
			if sub.lastSent != rt.lastSent {
				sub.lastSent = rt.lastSent
				s.subs[rt.key] = sub
			}
		}
	}
}

// subsOfKind returns the sorted subscriptions watching kind, each with its
// route. The index is derived from sortedSubs — per-kind relative order
// matches the full scan exactly, so send order is unchanged — and is
// invalidated wherever subsOrder is (subscribe, cancel, crash); a restored
// server starts without one, so it resolves its routes in the restored
// world. A watch registers after its client's request has come in, and the
// reply to it has made the link's record, so resolving one finds it.
func (s *Server) subsOfKind(kind cluster.Kind) []relayTarget {
	if s.subsByKind == nil {
		s.subsByKind = make(map[cluster.Kind][]relayTarget, 4)
		net := s.world.Network()
		for _, sk := range s.sortedSubs() {
			if sub, ok := s.subs[sk]; ok {
				s.subsByKind[sub.kind] = append(s.subsByKind[sub.kind], relayTarget{key: sk, subID: sub.subID, route: net.Route(s.id, sub.client), lastSent: sub.lastSent})
			}
		}
	}
	return s.subsByKind[kind]
}

// rebuildKindIndex reconstructs the per-kind sorted key index from the
// cache (bootstrap relist and snapshot restore).
func (s *Server) rebuildKindIndex() {
	s.kindKeys = make(map[cluster.Kind][]string)
	s.kindBroken = false
	for key := range s.cache {
		kind, _, err := cluster.ParseKey(key)
		if err != nil {
			s.kindBroken = true
			s.kindKeys = nil
			return
		}
		s.kindKeys[kind] = append(s.kindKeys[kind], key)
	}
	for _, keys := range s.kindKeys {
		sort.Strings(keys)
	}
}

// kindIndexInsert adds a newly cached key to its kind's sorted slice.
// Registry keys are "/registry/<kind>/<name>", so a kind's keys are
// exactly the contiguous prefix range the legacy full-sort scan served —
// per-kind sorted order and the filtered global order coincide.
func (s *Server) kindIndexInsert(key string) {
	if s.kindBroken {
		return
	}
	kind, _, err := cluster.ParseKey(key)
	if err != nil {
		// An unparseable key would still prefix-match legacy scans;
		// rather than silently diverge, disable the index and fall back.
		s.kindBroken = true
		s.kindKeys = nil
		return
	}
	keys := s.kindKeys[kind]
	i := sort.SearchStrings(keys, key)
	if i < len(keys) && keys[i] == key {
		return
	}
	keys = append(keys, "")
	copy(keys[i+1:], keys[i:])
	keys[i] = key
	s.kindKeys[kind] = keys
}

// kindIndexRemove drops a deleted key from its kind's sorted slice.
func (s *Server) kindIndexRemove(key string) {
	if s.kindBroken {
		return
	}
	kind, _, err := cluster.ParseKey(key)
	if err != nil {
		return
	}
	keys := s.kindKeys[kind]
	i := sort.SearchStrings(keys, key)
	if i < len(keys) && keys[i] == key {
		s.kindKeys[kind] = append(keys[:i], keys[i+1:]...)
	}
}

// decodeCached returns the decoded object for a cached KV through the
// ModRevision-keyed memo (the store layer's PR 7 pattern). applyOne seeds
// the memo, so this misses only for keys that entered the cache by
// bootstrap relist or snapshot restore.
func (s *Server) decodeCached(key string, kv store.KV) (*cluster.Object, error) {
	if d, ok := s.decoded[key]; ok && d.rev == kv.ModRevision {
		s.stats.DecodeHits++
		return d.obj, nil
	}
	obj, err := cluster.Decode(kv.Value, kv.ModRevision)
	if err != nil {
		return nil, err
	}
	s.stats.DecodeMisses++
	s.memoize(key, kv.ModRevision, obj)
	return obj, nil
}

func (s *Server) memoize(key string, rev int64, obj *cluster.Object) {
	if s.decoded == nil {
		s.decoded = make(map[string]decodedObj)
	}
	s.decoded[key] = decodedObj{rev: rev, obj: obj}
}

// Memoized returns the decode memo's objects in key order: the objects
// this apiserver currently shares with its readers and watchers. They
// are read-only like every other API object; the ownership detector
// (workload.TestSharedObjectsNeverMutated) checks them against the store.
func (s *Server) Memoized() []*cluster.Object {
	keys := make([]string, 0, len(s.decoded))
	for k := range s.decoded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*cluster.Object, 0, len(keys))
	for _, k := range keys {
		out = append(out, s.decoded[k].obj)
	}
	return out
}

// Stats returns a copy of the serving-path counters.
func (s *Server) Stats() ServeStats { return s.stats }

func sortedSubKeys(m map[string]clientSub) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedSubs returns the cached sorted sub-key order (relay runs on every
// committed event); subscription add/remove invalidates it.
func (s *Server) sortedSubs() []string {
	if s.subsOrder == nil {
		s.subsOrder = sortedSubKeys(s.subs)
	}
	return s.subsOrder
}

// scheduleResync keeps a liveness timer: if the store stream has been
// silent for ResyncInterval, pull any missed events.
func (s *Server) scheduleResync() {
	s.timers.After(s.cfg.ResyncInterval, sim.EventTag{Kind: "resync"})
}

// resyncFire is the resync timer body, the one timer the server owns.
func (s *Server) resyncFire(sim.EventTag) {
	if s.ready && s.world.Now().Sub(s.lastEventAt) >= s.cfg.ResyncInterval {
		s.recoverGap()
	}
	s.scheduleResync()
}

func (s *Server) register() {
	// Cached reads answer immediately; quorum reads read through to the
	// store asynchronously.
	s.rpcSrv.HandleAsync(MethodGet, func(_ sim.NodeID, body any, reply sim.Reply) {
		if !s.ready {
			reply.Send(nil, ErrNotReady)
			return
		}
		req := body.(*GetRequest)
		if !req.Quorum {
			reply.Send(s.getCached(req.Kind, req.Name))
			return
		}
		s.rpcCl.Call(s.cfg.StoreNode, store.MethodGet, &store.GetRequest{Key: cluster.Key(req.Kind, req.Name)},
			func(b any, err error) {
				if err != nil {
					reply.Send(nil, err)
					return
				}
				resp := b.(*store.GetResponse)
				out := &GetResponse{Found: resp.Found}
				if resp.Found {
					obj, derr := cluster.Decode(resp.KV.Value, resp.KV.ModRevision)
					if derr != nil {
						reply.Send(nil, derr)
						return
					}
					out.Object = obj
				}
				reply.Send(out, nil)
			})
	})
	s.rpcSrv.HandleAsync(MethodList, func(_ sim.NodeID, body any, reply sim.Reply) {
		if !s.ready {
			reply.Send(nil, ErrNotReady)
			return
		}
		req := body.(*ListRequest)
		if !req.Quorum {
			reply.Send(s.listCached(req.Kind))
			return
		}
		s.rpcCl.Call(s.cfg.StoreNode, store.MethodRange, &store.RangeRequest{Prefix: cluster.KindPrefix(req.Kind)},
			func(b any, err error) {
				if err != nil {
					reply.Send(nil, err)
					return
				}
				resp := b.(*store.RangeResponse)
				out := &ListResponse{Revision: resp.Revision}
				for _, kv := range resp.KVs {
					obj, derr := cluster.Decode(kv.Value, kv.ModRevision)
					if derr != nil {
						continue
					}
					out.Objects = append(out.Objects, obj)
				}
				reply.Send(out, nil)
			})
	})
	s.rpcSrv.HandleAsync(MethodCreate, func(_ sim.NodeID, body any, reply sim.Reply) {
		if !s.ready {
			reply.Send(nil, ErrNotReady)
			return
		}
		obj := body.(*CreateRequest).Object
		key := s.key(obj.Meta.Kind, obj.Meta.Name)
		s.write(obj, key, store.Cmp{Key: key, Target: store.CmpExists, IntVal: 0}, ErrAlreadyExists, reply)
	})
	s.rpcSrv.HandleAsync(MethodUpdate, func(_ sim.NodeID, body any, reply sim.Reply) {
		if !s.ready {
			reply.Send(nil, ErrNotReady)
			return
		}
		obj := body.(*UpdateRequest).Object
		key := s.key(obj.Meta.Kind, obj.Meta.Name)
		guard := store.Cmp{Key: key, Target: store.CmpExists, IntVal: 1}
		if rv := obj.Meta.ResourceVersion; rv != 0 {
			guard = store.Cmp{Key: key, Target: store.CmpModRevision, IntVal: rv}
		}
		s.write(obj, key, guard, ErrConflict, reply)
	})
	s.rpcSrv.HandleAsync(MethodDelete, func(_ sim.NodeID, body any, reply sim.Reply) {
		if !s.ready {
			reply.Send(nil, ErrNotReady)
			return
		}
		req := body.(*DeleteRequest)
		key := s.key(req.Kind, req.Name)
		guard := store.Cmp{Key: key, Target: store.CmpExists, IntVal: 1}
		conflictErr := error(ErrNotFound)
		if req.ExpectRV != 0 {
			guard = store.Cmp{Key: key, Target: store.CmpModRevision, IntVal: req.ExpectRV}
			conflictErr = ErrConflict
		}
		s.rpcCl.Call(s.cfg.StoreNode, store.MethodTxn, newTxn(guard, store.Op{Type: store.OpDelete, Key: key}),
			func(b any, err error) {
				switch {
				case err != nil:
					reply.Send(nil, err)
				case !b.(*store.TxnResponse).Succeeded:
					reply.Send(nil, conflictErr)
				default:
					reply.Send(nil, nil)
				}
			})
	})
	s.rpcSrv.Handle(MethodWatch, func(from sim.NodeID, body any) (any, error) {
		if !s.ready {
			return nil, ErrNotReady
		}
		req := body.(*WatchRequest)
		if req.StartRev < s.minStartRev {
			return nil, ErrTooOldResourceVersion
		}
		key := subKey(from, req.SubID)
		sub := clientSub{subID: req.SubID, client: from, kind: req.Kind, lastSent: req.StartRev}
		// An informer on a quiet stream re-issues its watch every
		// WatchTimeout. The order caches hold keys, not subs: a live key
		// re-registered with the same kind leaves both of them valid.
		old, live := s.subs[key]
		if !live || old.kind != req.Kind {
			s.settle()
			s.subsOrder = nil
			s.subsByKind = nil
		}
		backlog := s.backlog(req.Kind, req.StartRev, &sub)
		s.subs[key] = sub
		for i, rt := range s.subsByKind[req.Kind] {
			if rt.key == key {
				s.subsByKind[req.Kind][i].lastSent = sub.lastSent
				break
			}
		}
		if len(backlog) > 0 {
			s.world.Network().Send(s.id, from, KindWatchPush, &WatchPushMsg{SubID: req.SubID, Events: backlog})
		}
		return nil, nil
	})
}

// subKey names a client's watch subscription in subs.
func subKey(from sim.NodeID, subID uint64) string {
	return string(from) + "/" + strconv.FormatUint(subID, 10)
}

// backlog returns the window's events of kind past startRev, advancing
// sub.lastSent to the last one. A re-watch from a quiet informer usually
// has nothing newer of its kind, and windowRev says so without a search
// or a scan. The window is revision-ordered.
func (s *Server) backlog(kind cluster.Kind, startRev int64, sub *clientSub) []WatchEvent {
	if startRev >= s.newestInWindow(kind) {
		return nil
	}
	first := s.window.Search(func(e history.Event) bool { return e.Revision > startRev })
	prefix := cluster.KindPrefix(kind)
	var backlog []WatchEvent
	for i := first; i < s.window.Len(); i++ {
		e := s.window.At(i)
		if !strings.HasPrefix(e.Key, prefix) {
			continue
		}
		if we, ok := s.eventFromWindow(e); ok {
			backlog = append(backlog, we)
			sub.lastSent = e.Revision
		}
	}
	return backlog
}

// newestInWindow returns windowRev's entry for the kind, building the table
// from the window on first use after a restore, crash or bootstrap.
func (s *Server) newestInWindow(kind cluster.Kind) int64 {
	if s.windowRev == nil {
		s.windowRev = make(map[cluster.Kind]int64)
		for i := 0; i < s.window.Len(); i++ {
			e := s.window.At(i)
			if k, ok := windowKind(e.Key); ok {
				s.windowRev[k] = e.Revision
			}
		}
	}
	k, _ := windowKind(cluster.KindPrefix(kind))
	return s.windowRev[k]
}

// windowKind returns the first path segment after the registry prefix: the
// kind of every key a Watch's prefix match could select. A kind with a
// slash in it shares its first segment with the keys it matches, so the
// table stays conservative for it too.
func windowKind(key string) (cluster.Kind, bool) {
	rest, ok := strings.CutPrefix(key, cluster.RegistryPrefix)
	if !ok {
		return "", false
	}
	kind, _, ok := strings.Cut(rest, "/")
	return cluster.Kind(kind), ok
}

// eventFromWindow converts a retained raw event into a typed WatchEvent.
// Unlike the live path it cannot consult pre-event cache state, so Added vs
// Modified is derived from PrevRev and deletions are served as tombstones
// from the current cache (or identity-only if re-created since).
func (s *Server) eventFromWindow(e history.Event) (WatchEvent, bool) {
	switch e.Type {
	case history.Put:
		obj, err := cluster.Decode(e.Value, e.Revision)
		if err != nil {
			return WatchEvent{}, false
		}
		t := Modified
		if e.PrevRev == 0 {
			t = Added
		}
		return WatchEvent{Type: t, Object: obj, Revision: e.Revision}, true
	case history.Delete:
		kind, name, err := cluster.ParseKey(e.Key)
		if err != nil {
			return WatchEvent{}, false
		}
		obj := &cluster.Object{Meta: cluster.Meta{Kind: kind, Name: name, ResourceVersion: e.Revision}}
		return WatchEvent{Type: Deleted, Object: obj, Revision: e.Revision}, true
	}
	return WatchEvent{}, false
}

// write commits obj, which the request handed over, to key under guard,
// and replies with the committed object, or with failed if the guard does
// not hold. Its bytes go to the store as they come out of the encoder:
// the transaction takes the buffer over (store.Txn). An exact object
// (cluster.EncodeExact) is offered to the cluster's memo, so the revision
// it commits is served as it, undecoded. The reply is the committed
// revision's object (committed), never the request's object itself: a
// duplicating link can deliver one request twice.
func (s *Server) write(obj *cluster.Object, key string, guard store.Cmp, failed error, reply sim.Reply) {
	data, exact, err := cluster.EncodeExact(obj)
	if err != nil {
		reply.Send(nil, err)
		return
	}
	if exact {
		s.shared.wrote(key, data, obj)
	}
	w := &pendingWrite{s: s, obj: obj, failed: failed, exact: exact, reply: reply}
	s.rpcCl.CallWith(s.cfg.StoreNode, store.MethodTxn, w.set(guard, store.Op{Type: store.OpPut, Key: key, Value: data}), written, w)
}

// pendingWrite is a write's transaction, what its reply needs and the
// reply itself, in one allocation: the continuation is written, with no
// closure.
type pendingWrite struct {
	txn
	s      *Server
	obj    *cluster.Object
	failed error
	exact  bool
	reply  sim.Reply
	resp   WriteResponse
}

// written completes a write when the store answers: arg is its
// pendingWrite, whose one op holds the key and the bytes it put.
func written(arg, b any, err error) {
	w := arg.(*pendingWrite)
	if err != nil {
		w.reply.Send(nil, err)
		return
	}
	resp := b.(*store.TxnResponse)
	if !resp.Succeeded {
		w.reply.Send(nil, w.failed)
		return
	}
	op := &w.op[0]
	w.resp.Object = w.s.committed(op.Key, resp.Revision, w.obj, op.Value, w.exact)
	w.reply.Send(&w.resp, nil)
}

// committed returns the object of the revision rev that a write of obj,
// encoded to data, committed to key: the memo's, if an apiserver of the
// cluster has applied it; else obj on a shallow copy stamped with rev (its
// labels and payload are immutable, DESIGN.md §12) if obj is exact, and
// data's decode if it is not.
func (s *Server) committed(key string, rev int64, obj *cluster.Object, data []byte, exact bool) *cluster.Object {
	if o, ok := s.shared.lookup(key, rev); ok {
		return o
	}
	if !exact {
		if o, err := cluster.Decode(data, rev); err == nil {
			return o
		}
	}
	c := *obj
	c.Meta.ResourceVersion = rev
	return &c
}

// txn is a handler's store transaction in one allocation: the request and
// the one guard and one op its slices hold.
type txn struct {
	req   store.TxnRequest
	guard [1]store.Cmp
	op    [1]store.Op
}

func newTxn(guard store.Cmp, op store.Op) *store.TxnRequest { return new(txn).set(guard, op) }

// set fills t with its guard and op and returns its request.
func (t *txn) set(guard store.Cmp, op store.Op) *store.TxnRequest {
	t.guard[0], t.op[0] = guard, op
	t.req.Guards, t.req.OnSuccess = t.guard[:], t.op[:]
	return &t.req
}

// key returns the store key of (kind, name): the cache's own string when
// the key is cached, so a Get or a write of a cached object builds none.
func (s *Server) key(kind cluster.Kind, name string) string {
	if kv, ok := s.cached(kind, name); ok {
		return kv.Key
	}
	return cluster.Key(kind, name)
}

// cached returns the cache entry of (kind, name), looked up by a key built
// on the stack.
func (s *Server) cached(kind cluster.Kind, name string) (store.KV, bool) {
	var buf [96]byte
	k := append(append(buf[:0], cluster.KindPrefix(kind)...), name...)
	kv, ok := s.cache[string(k)]
	return kv, ok
}

func (s *Server) listCached(kind cluster.Kind) (*ListResponse, error) {
	out := &ListResponse{Revision: s.cachedRev}
	s.stats.ListServed++
	if s.cfg.UnindexedServing || s.kindBroken {
		// Legacy path: re-sort every cache key and re-decode every
		// matching object on each call.
		prefix := cluster.KindPrefix(kind)
		for _, key := range sortedCacheKeys(s.cache) {
			s.stats.ListKeysScanned++
			if !strings.HasPrefix(key, prefix) {
				continue
			}
			kv := s.cache[key]
			obj, err := cluster.Decode(kv.Value, kv.ModRevision)
			if err != nil {
				continue
			}
			out.Objects = append(out.Objects, obj)
		}
		return out, nil
	}
	for _, key := range s.kindKeys[kind] {
		s.stats.ListKeysScanned++
		kv, ok := s.cache[key]
		if !ok {
			continue
		}
		obj, err := s.decodeCached(key, kv)
		if err != nil {
			continue
		}
		out.Objects = append(out.Objects, obj)
	}
	return out, nil
}

func sortedCacheKeys(m map[string]store.KV) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *Server) getCached(kind cluster.Kind, name string) (*GetResponse, error) {
	kv, ok := s.cached(kind, name)
	if !ok {
		return &GetResponse{Found: false}, nil
	}
	var (
		obj *cluster.Object
		err error
	)
	if s.cfg.UnindexedServing {
		obj, err = cluster.Decode(kv.Value, kv.ModRevision)
	} else {
		obj, err = s.decodeCached(kv.Key, kv)
	}
	if err != nil {
		return nil, err
	}
	return &s.getSlab.One(GetResponse{Object: obj, Found: true})[0], nil
}
