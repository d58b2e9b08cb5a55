// Package store implements an etcd-like, logically centralized,
// strongly-consistent data store: an MVCC keyspace with global revisions,
// compare-and-swap transactions, watch streams with start
// revisions, and compaction of the retained event window.
//
// The store is the system's ground truth (H, S) in the paper's model: every
// committed mutation appends an event to H, and S is the materialized
// keyspace. All other components (apiservers, informer caches, controllers)
// observe the store only through reads and watch notifications — i.e.
// through partial histories.
//
// The Store type itself is a passive, deterministic, single-threaded data
// structure; internal/store.Server wraps it as a simulated network actor,
// and internal/raftlite replicates its command log across simulated
// replicas.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/history"
	"repro/internal/sim"
)

// Errors returned by store operations.
var (
	// ErrCompacted is returned when a read or watch requests a revision
	// older than the compacted window — the observability gap of paper
	// §4.2.3: "requests for earlier events may fail when only recent events
	// in H are saved by design".
	ErrCompacted = errors.New("store: required revision has been compacted")
	// ErrFutureRevision is returned when a read requests a revision newer
	// than the store has committed.
	ErrFutureRevision = errors.New("store: required revision is in the future")
	// ErrTxnFailed is returned by Txn when a guard fails.
	ErrTxnFailed = errors.New("store: transaction guards failed")
	// ErrKeyNotFound is returned by deletes of absent keys.
	ErrKeyNotFound = errors.New("store: key not found")
)

// KV is one key-value pair with its MVCC metadata.
type KV struct {
	Key            string
	Value          []byte
	CreateRevision int64
	ModRevision    int64
	Version        int64
}

func (kv KV) clone() KV {
	kv.Value = append([]byte(nil), kv.Value...)
	return kv
}

// WatchNotify delivers committed events to a watcher, in commit order.
// Handlers run synchronously inside the commit; network-facing wrappers
// (Server) forward them as messages so delivery becomes asynchronous and
// perturbable. The batch is shared with every other watcher of the commit
// and is never modified: a handler may retain it but not write to it.
type WatchNotify func(events []history.Event)

type watcher struct {
	prefix string
	notify WatchNotify
}

// Store is the MVCC keyspace. Not safe for concurrent use; the simulated
// world is single-threaded by design.
type Store struct {
	// watchers are rebuilt on restore by the Server that owns their
	// subscriptions (their notify is a closure over it).
	watchers    map[int64]*watcher
	notifyHooks []func([]history.Event)

	// decoded memoizes DecodedGet/Prefix.Decoded results per key: values are
	// immutable per ModRevision, so a decode is valid until the key is
	// written again. Pure cache — never part of snapshots or equality.
	decoded map[string]decodedVal
	// prefixes are the handles Track gave out, in Track order; commit bumps
	// the generation of each one the committed key falls under. Like decoded
	// they are no part of snapshots or equality: a restored store tracks
	// nothing until its readers ask again.
	prefixes []*Prefix
	// watcherOrder caches the sorted watcher IDs used on every commit;
	// rebuilt only when the watcher set changes.
	watcherOrder []int64
	// batches arena-allocates the one-event batch of every commit.
	batches sim.Slab[history.Event]
	storeState
}

// storeState is everything the keyspace carries from one commit to the
// next. The committed-event log is shared copy-on-write with every snapshot
// (it is immutable once committed; Append on either side reallocates); KV
// value byte slices are shared because the store never mutates a committed
// value in place (writes install fresh KVs and reads clone).
type storeState struct {
	rev       int64
	compacted int64           // all events with revision < compacted+1 are dropped... (first retained revision - 1)
	kvs       map[string]KV   `snap:"shared-elems"`
	hist      history.History `snap:"shared"`
	nextWatch int64
	retainMax int   // max retained history events; 0 = unlimited
	now       int64 // virtual time stamped on committed events
}

func (s storeState) clone() storeState {
	s.kvs = sim.CloneMap(s.kvs)
	s.hist = s.hist.Fork()
	return s
}

type decodedVal struct {
	rev int64
	v   any
}

// Prefix is a reader's handle on the live keys under one key prefix,
// obtained once from Track: whether anything under the prefix was committed
// since the reader last looked is one load of Generation, and Decoded is
// rebuilt only then — a commit elsewhere in the keyspace (a node heartbeat,
// to a reader of pods) costs it nothing.
type Prefix struct {
	s      *Store
	prefix string
	gen    sim.Generation
	// vals memoizes Decoded for generation valsGen; nil until the first call.
	vals    []any
	valsGen uint64
}

// Track returns the handle on prefix, the same one for the same prefix.
func (s *Store) Track(prefix string) *Prefix {
	for _, p := range s.prefixes {
		if p.prefix == prefix {
			return p
		}
	}
	p := &Prefix{s: s, prefix: prefix}
	s.prefixes = append(s.prefixes, p)
	return p
}

// Generation counts the commits under the prefix since Track.
func (p *Prefix) Generation() *sim.Generation { return &p.gen }

// New returns an empty store at revision 0.
func New() *Store {
	return &Store{
		watchers:   make(map[int64]*watcher),
		storeState: storeState{kvs: make(map[string]KV)},
	}
}

// SetRetainLimit bounds the retained history window to n events; once
// exceeded the store auto-compacts its oldest events, modelling the rolling
// watch window of the Kubernetes apiserver ([7]). n = 0 disables the bound.
func (s *Store) SetRetainLimit(n int) { s.retainMax = n }

// Revision returns the latest committed revision.
func (s *Store) Revision() int64 { return s.rev }

// History returns a clone of the retained history window.
func (s *Store) History() *history.History { return s.hist.Clone() }

// Len returns the number of live keys.
func (s *Store) Len() int { return len(s.kvs) }

// Get returns the current value of key and the store revision.
func (s *Store) Get(key string) (KV, int64, bool) {
	kv, ok := s.kvs[key]
	if !ok {
		return KV{}, s.rev, false
	}
	return kv.clone(), s.rev, true
}

// Range returns all live keys with the given prefix, sorted, plus the store
// revision at which the snapshot was taken.
func (s *Store) Range(prefix string) ([]KV, int64) {
	var out []KV
	for k, kv := range s.kvs {
		if strings.HasPrefix(k, prefix) {
			out = append(out, kv.clone())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, s.rev
}

// DecodedGet returns the decode of key's current value, memoized per
// (key, ModRevision): decode runs only when the key has been written since
// the last call. The returned value is shared across calls and callers —
// it MUST be treated as immutable. A store expects one decoder per key.
func (s *Store) DecodedGet(key string, decode func(value []byte, rev int64) (any, error)) (any, bool) {
	kv, ok := s.kvs[key]
	if !ok {
		return nil, false
	}
	return s.decodeMemo(key, kv, decode)
}

// Decoded returns the memoized decodes of all live keys under the prefix,
// in key order, rebuilt only when a commit under the prefix has happened
// since the last call. Same per-key memoization and immutability contract
// as DecodedGet (the returned slice is shared too); values failing to
// decode are skipped.
func (p *Prefix) Decoded(decode func(value []byte, rev int64) (any, error)) []any {
	if p.vals != nil && p.valsGen == p.gen.Value() {
		return p.vals
	}
	s := p.s
	keys := make([]string, 0, 8)
	for k := range s.kvs {
		if strings.HasPrefix(k, p.prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := make([]any, 0, len(keys))
	for _, k := range keys {
		if v, ok := s.decodeMemo(k, s.kvs[k], decode); ok {
			out = append(out, v)
		}
	}
	p.vals, p.valsGen = out, p.gen.Value()
	return out
}

func (s *Store) decodeMemo(key string, kv KV, decode func(value []byte, rev int64) (any, error)) (any, bool) {
	if d, ok := s.decoded[key]; ok && d.rev == kv.ModRevision {
		return d.v, true
	}
	v, err := decode(kv.Value, kv.ModRevision)
	if err != nil {
		return nil, false
	}
	if s.decoded == nil {
		s.decoded = make(map[string]decodedVal)
	}
	s.decoded[key] = decodedVal{rev: kv.ModRevision, v: v}
	return v, true
}

// Put writes key=value and returns the new revision. The store commits a
// copy of value: the caller keeps its bytes.
func (s *Store) Put(key string, value []byte) int64 {
	return s.put(key, append([]byte(nil), value...))
}

// put commits value as it is, shared by the KV, the history event and
// every watcher's batch: the caller has handed it over, and nobody writes
// to it again.
func (s *Store) put(key string, value []byte) int64 {
	prev, existed := s.kvs[key]
	s.rev++
	kv := KV{
		Key:            key,
		Value:          value,
		ModRevision:    s.rev,
		CreateRevision: s.rev,
		Version:        1,
	}
	var prevRev int64
	if existed {
		kv.CreateRevision = prev.CreateRevision
		kv.Version = prev.Version + 1
		prevRev = prev.ModRevision
	}
	s.kvs[key] = kv
	s.commit(history.Event{
		Revision: s.rev, Type: history.Put, Key: key,
		Value: value, PrevRev: prevRev,
	})
	return s.rev
}

// Delete removes key, returning the deletion revision.
func (s *Store) Delete(key string) (int64, error) {
	prev, ok := s.kvs[key]
	if !ok {
		return s.rev, ErrKeyNotFound
	}
	delete(s.kvs, key)
	delete(s.decoded, key)
	s.rev++
	s.commit(history.Event{
		Revision: s.rev, Type: history.Delete, Key: key, PrevRev: prev.ModRevision,
	})
	return s.rev, nil
}

func (s *Store) commit(e history.Event) {
	e.Time = s.now
	for _, p := range s.prefixes {
		if strings.HasPrefix(e.Key, p.prefix) {
			p.gen.Bump()
		}
	}
	if err := s.hist.Append(e); err != nil {
		// Revisions are assigned monotonically by this store; a failure
		// here is a programming error, not a runtime condition.
		panic(fmt.Sprintf("store: history append: %v", err))
	}
	if s.retainMax > 0 && s.hist.Len() > s.retainMax {
		first := s.hist.At(s.hist.Len() - s.retainMax).Revision
		s.CompactTo(first)
	}
	// One batch per commit, shared by every watcher and hook.
	batch := s.batches.One(e)
	for _, id := range s.watcherIDs() {
		w, ok := s.watchers[id]
		if !ok {
			continue // unwatched by an earlier notify in this commit
		}
		if strings.HasPrefix(e.Key, w.prefix) {
			w.notify(batch)
		}
	}
	for _, hook := range s.notifyHooks {
		hook(batch)
	}
}

// watcherIDs returns the watcher IDs in ascending order; the sorted slice
// is cached (commits are the hot path) and invalidated by Watch/Unwatch.
func (s *Store) watcherIDs() []int64 {
	if s.watcherOrder == nil {
		ids := make([]int64, 0, len(s.watchers))
		for id := range s.watchers {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		s.watcherOrder = ids
	}
	return s.watcherOrder
}

// SetNow sets the virtual time recorded on subsequently committed events;
// the Server (or a test) advances it.
func (s *Store) SetNow(t int64) { s.now = t }

// CompactTo drops retained history strictly before rev. Watches started
// below rev will fail with ErrCompacted.
func (s *Store) CompactTo(rev int64) int {
	if rev <= s.compacted+1 {
		return 0
	}
	dropped := s.hist.Compact(rev)
	if rev-1 > s.compacted {
		s.compacted = rev - 1
	}
	return dropped
}

// AddNotifyHook installs a hook called after watcher notification on every
// commit. Hooks run in registration order; the trace recorder and the
// event-driven oracles both use this.
func (s *Store) AddNotifyHook(h func([]history.Event)) {
	s.notifyHooks = append(s.notifyHooks, h)
}
