package client

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/apiserver"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// EventHandler receives typed cache events from an Informer. For handlers
// added after the cache is synced, the initial list is replayed as OnAdd
// calls, matching client-go semantics.
//
// The objects passed in are the informer's cached objects, shared with
// every other handler, reader and checkpoint fork: they are read-only, and
// a handler that wants to change one Clones it first. They stay valid (and
// unchanged) after the call returns, so a handler may retain them.
type EventHandler interface {
	OnAdd(obj *cluster.Object)
	OnUpdate(oldObj, newObj *cluster.Object)
	OnDelete(obj *cluster.Object)
}

// HandlerFuncs adapts plain functions to EventHandler; nil funcs are
// skipped.
type HandlerFuncs struct {
	AddFunc    func(obj *cluster.Object)
	UpdateFunc func(oldObj, newObj *cluster.Object)
	DeleteFunc func(obj *cluster.Object)
}

// OnAdd implements EventHandler.
func (h HandlerFuncs) OnAdd(obj *cluster.Object) {
	if h.AddFunc != nil {
		h.AddFunc(obj)
	}
}

// OnUpdate implements EventHandler.
func (h HandlerFuncs) OnUpdate(oldObj, newObj *cluster.Object) {
	if h.UpdateFunc != nil {
		h.UpdateFunc(oldObj, newObj)
	}
}

// OnDelete implements EventHandler.
func (h HandlerFuncs) OnDelete(obj *cluster.Object) {
	if h.DeleteFunc != nil {
		h.DeleteFunc(obj)
	}
}

// Relist retry backoff: the first retry waits relistBackoffBase, each
// subsequent failure doubles the wait up to relistBackoffCap, and every
// wait gets up-to-half jitter from the kernel RNG so a fleet of informers
// relisting against a recovering upstream doesn't synchronize into a
// thundering herd. The RNG is only consulted on the error path, so
// healthy executions draw exactly the same random sequence as before.
const (
	relistBackoffBase = 100 * sim.Millisecond
	relistBackoffCap  = 1600 * sim.Millisecond
)

// InformerConfig tunes informer behaviour.
type InformerConfig struct {
	// WatchTimeout re-establishes the watch (pulling a fresh list if
	// needed) when no event has arrived for this long. 0 disables.
	WatchTimeout sim.Duration
	// RelistEvery forces a periodic full relist regardless of stream
	// health — the defensive resync hardened controllers use to bound the
	// damage of silently lost notifications. 0 disables (stock behaviour:
	// a missed event is missed forever).
	RelistEvery sim.Duration
}

// Informer maintains a component's local cache S' of one kind, fed by
// list+watch from the component's current apiserver. It is the analog of a
// client-go SharedIndexInformer and — per the paper — the canonical home of
// partial histories in infrastructure services.
type Informer struct {
	conn *Conn
	kind cluster.Kind
	cfg  InformerConfig

	// order is the cache in name order, handed out by ListCached; nil means
	// stale (membership changed). An update under a cached name replaces
	// its slot.
	order []*cluster.Object
	// byNode holds the cached pods bound to each node, each list in name
	// order; nil means not built. ListOnNode builds it, and from then on
	// set and remove edit it in place.
	byNode   map[string][]*cluster.Object
	handlers []EventHandler
	informerState
}

// informerState is everything an informer carries from one event to the
// next. The cached objects are shared with every snapshot and fork: API
// objects are immutable once received (DESIGN.md, "Object ownership").
type informerState struct {
	subID   uint64
	epoch   uint64 // guards async callbacks across relists
	synced  bool
	store   map[string]*cluster.Object `snap:"shared-elems"` // S'
	lastRev int64                      // frontier of H'

	lastEventAt sim.Time
	relists     int
	backoff     sim.Duration // next retry's base delay; 0 = healthy
}

func (s informerState) clone() informerState {
	s.store = sim.CloneMap(s.store)
	return s
}

// NewInformer creates (but does not start) an informer for kind on conn.
func NewInformer(conn *Conn, kind cluster.Kind, cfg InformerConfig) *Informer {
	inf := &Informer{conn: conn, kind: kind, cfg: cfg}
	inf.store = make(map[string]*cluster.Object)
	conn.nextSub++
	inf.subID = conn.nextSub
	conn.informers[inf.subID] = inf
	return inf
}

// AddHandler registers a handler. If the cache is already synced the
// current contents are replayed to it as OnAdd calls.
func (i *Informer) AddHandler(h EventHandler) {
	i.handlers = append(i.handlers, h)
	if i.synced {
		for _, o := range i.sorted() {
			h.OnAdd(o)
		}
	}
}

// Run starts the initial list+watch.
func (i *Informer) Run() {
	i.relist("initial sync")
	if i.cfg.WatchTimeout > 0 {
		i.scheduleLiveness()
	}
	if i.cfg.RelistEvery > 0 {
		i.schedulePeriodicRelist()
	}
}

func (i *Informer) schedulePeriodicRelist() {
	i.conn.timers.After(i.cfg.RelistEvery, sim.EventTag{Kind: "inf-relist", N: i.subID})
}

// periodicRelistFire is the periodic-resync timer body.
func (i *Informer) periodicRelistFire() {
	i.relist("periodic resync")
	i.schedulePeriodicRelist()
}

// Synced reports whether the initial list completed.
func (i *Informer) Synced() bool { return i.synced }

// LastRevision returns the cache frontier (H' position).
func (i *Informer) LastRevision() int64 { return i.lastRev }

// Relists returns how many list operations the informer has performed.
func (i *Informer) Relists() int { return i.relists }

// Get returns the cached object by name. The result is the cached object
// itself and is read-only: Clone before changing it.
func (i *Informer) Get(name string) (*cluster.Object, bool) {
	o, ok := i.store[name]
	return o, ok
}

// ListCached returns all cached objects ordered by name — a sparse read of
// S' in the paper's terms. The slice is the informer's own: it is read-only
// (no sorting, appending or writing into it) and valid until the informer's
// next change. The objects are the cached objects themselves and are
// read-only too: Clone before changing one.
func (i *Informer) ListCached() []*cluster.Object { return i.sorted() }

// ListOnNode returns the cached pods bound to node, ordered by name: the
// subsequence of ListCached whose Pod.NodeName is node — the kubelet's
// spec.nodeName field selector, applied in the client so the wire does not
// change. Like ListCached's, the slice is read-only and valid until the
// informer's next change.
func (i *Informer) ListOnNode(node string) []*cluster.Object {
	if i.byNode == nil {
		i.byNode = make(map[string][]*cluster.Object)
		for _, o := range i.sorted() {
			if n := nodeOf(o); n != "" {
				i.byNode[n] = append(i.byNode[n], o)
			}
		}
	}
	return i.byNode[node]
}

// Len returns the number of cached objects.
func (i *Informer) Len() int { return len(i.store) }

// sorted returns the cached objects in name order, rebuilding the order
// after a membership change.
func (i *Informer) sorted() []*cluster.Object {
	if i.order == nil {
		i.order = make([]*cluster.Object, 0, len(i.store))
		for _, o := range i.store {
			i.order = append(i.order, o)
		}
		slices.SortFunc(i.order, byName)
	}
	return i.order
}

// set installs obj under its name and returns the object it replaced.
func (i *Informer) set(obj *cluster.Object) (old *cluster.Object, existed bool) {
	name := obj.Meta.Name
	old, existed = i.store[name]
	i.store[name] = obj
	if i.order != nil {
		// A new name changes membership. So does an order a caller wrote
		// into against the rule above ListCached: the name is not where a
		// search finds it.
		if k := slot(i.order, name); existed && k < len(i.order) && i.order[k].Meta.Name == name {
			i.order[k] = obj
		} else {
			i.order = nil
		}
	}
	if i.byNode != nil {
		from, to := "", nodeOf(obj)
		if existed {
			from = nodeOf(old)
		}
		if from == to && to != "" {
			l := i.byNode[to]
			l[slot(l, name)] = obj
			return old, existed
		}
		if from != "" {
			i.unindex(from, name)
		}
		if to != "" {
			l := i.byNode[to]
			i.byNode[to] = slices.Insert(l, slot(l, name), obj)
		}
	}
	return old, existed
}

// remove drops name from the cache and returns the object it held.
func (i *Informer) remove(name string) (old *cluster.Object, existed bool) {
	old, existed = i.store[name]
	if existed {
		i.order = nil
		delete(i.store, name)
		if n := nodeOf(old); i.byNode != nil && n != "" {
			i.unindex(n, name)
		}
	}
	return old, existed
}

// unindex drops name from node's list in byNode.
func (i *Informer) unindex(node, name string) {
	l := i.byNode[node]
	k := slot(l, name)
	i.byNode[node] = slices.Delete(l, k, k+1)
}

// nodeOf is the node a cached object is bound to; "" for none.
func nodeOf(o *cluster.Object) string {
	if o.Pod == nil {
		return ""
	}
	return o.Pod.NodeName
}

// slot returns where name sits, or would sit, in a name-ordered list.
func slot(l []*cluster.Object, name string) int {
	n, _ := slices.BinarySearchFunc(l, name, func(o *cluster.Object, name string) int {
		return strings.Compare(o.Meta.Name, name)
	})
	return n
}

func byName(a, b *cluster.Object) int { return strings.Compare(a.Meta.Name, b.Meta.Name) }

// relist pulls a full list and reconciles the cache against it, emitting
// synthetic Added/Modified/Deleted notifications for the difference — the
// client-go "Replace" path. After a relist the informer re-watches from the
// listed revision.
//
// Crucially, a relist against a stale upstream moves the cache *backwards*:
// deleted objects reappear (OnAdd), recent objects vanish (OnDelete), and
// lastRev regresses. Nothing in this layer prevents that — faithfully
// reproducing the Kubernetes behaviour behind time-travel bugs.
func (i *Informer) relist(reason string) {
	i.epoch++
	epoch := i.epoch
	i.relists++
	i.conn.List(i.kind, false, func(objs []*cluster.Object, rev int64, err error) {
		if epoch != i.epoch {
			return
		}
		if err != nil {
			// Upstream unavailable: retry with capped exponential backoff
			// plus kernel-RNG jitter (deterministic under the world seed).
			d := i.backoff
			if d == 0 {
				d = relistBackoffBase
			}
			if next := 2 * d; next > relistBackoffCap {
				i.backoff = relistBackoffCap
			} else {
				i.backoff = next
			}
			d += sim.Duration(i.conn.world.Kernel().Rand().Int63n(int64(d/2) + 1))
			i.conn.world.Kernel().Schedule(d, func() {
				if epoch == i.epoch {
					i.relist(reason)
				}
			})
			return
		}
		i.replace(objs, rev)
		i.startWatch(epoch)
	})
}

func (i *Informer) replace(objs []*cluster.Object, rev int64) {
	incoming := make(map[string]*cluster.Object, len(objs))
	for _, o := range objs {
		incoming[o.Meta.Name] = o
	}
	names := make([]string, 0, len(incoming))
	for n := range incoming {
		names = append(names, n)
	}
	sort.Strings(names)

	for _, name := range names {
		newObj := incoming[name]
		old, existed := i.set(newObj)
		switch {
		case !existed:
			i.emitAdd(newObj)
		case old.Meta.ResourceVersion != newObj.Meta.ResourceVersion:
			i.emitUpdate(old, newObj)
		}
	}
	for _, o := range i.sorted() {
		if _, ok := incoming[o.Meta.Name]; !ok {
			i.remove(o.Meta.Name)
			i.emitDelete(o)
		}
	}
	i.lastRev = rev
	i.synced = true
	i.backoff = 0 // a successful replace resets the retry backoff
	i.lastEventAt = i.conn.world.Now()
}

func (i *Informer) startWatch(epoch uint64) {
	i.conn.rpc.Call(i.conn.api, apiserver.MethodWatch,
		&apiserver.WatchRequest{Kind: i.kind, StartRev: i.lastRev, SubID: i.subID},
		func(_ any, err error) {
			if epoch != i.epoch {
				return
			}
			if err != nil {
				if apiserver.IsTooOld(err) {
					i.relist("watch window expired")
					return
				}
				i.conn.world.Kernel().Schedule(100*sim.Millisecond, func() {
					if epoch == i.epoch {
						i.startWatch(epoch)
					}
				})
				return
			}
			i.lastEventAt = i.conn.world.Now()
		})
}

// onPush applies pushed watch events to the cache.
func (i *Informer) onPush(events []apiserver.WatchEvent) {
	for _, ev := range events {
		if ev.Object == nil || ev.Object.Meta.Kind != i.kind {
			continue
		}
		if ev.Revision <= i.lastRev && ev.Revision != 0 {
			// Duplicate or replayed event; client-go dedups by RV.
			continue
		}
		switch ev.Type {
		case apiserver.Added, apiserver.Modified:
			if old, existed := i.set(ev.Object); existed {
				i.emitUpdate(old, ev.Object)
			} else {
				i.emitAdd(ev.Object)
			}
		case apiserver.Deleted:
			if old, existed := i.remove(ev.Object.Meta.Name); existed {
				i.emitDelete(old)
			} else {
				i.emitDelete(ev.Object)
			}
		}
		if ev.Revision > i.lastRev {
			i.lastRev = ev.Revision
		}
	}
	i.lastEventAt = i.conn.world.Now()
}

// scheduleLiveness arms one liveness firing carrying the epoch observed at
// arm time: a firing armed before a relist finds its epoch stale.
func (i *Informer) scheduleLiveness() {
	i.conn.timers.After(i.cfg.WatchTimeout, sim.EventTag{Kind: "inf-liveness", N: i.subID, Epoch: i.epoch})
}

func (i *Informer) livenessFire(epoch uint64) {
	if i.synced && epoch == i.epoch &&
		i.conn.world.Now().Sub(i.lastEventAt) >= i.cfg.WatchTimeout {
		// Stream went quiet: the apiserver may have restarted and lost
		// our subscription. Re-establish.
		i.startWatch(i.epoch)
	}
	i.scheduleLiveness()
}

func (i *Informer) emitAdd(o *cluster.Object) {
	for _, h := range i.handlers {
		h.OnAdd(o)
	}
}

func (i *Informer) emitUpdate(old, new *cluster.Object) {
	for _, h := range i.handlers {
		h.OnUpdate(old, new)
	}
}

func (i *Informer) emitDelete(o *cluster.Object) {
	for _, h := range i.handlers {
		h.OnDelete(o)
	}
}
