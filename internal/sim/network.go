package sim

import (
	"fmt"
	"sort"
)

// NodeID names a simulated process (a store replica, an apiserver, a
// kubelet, ...). IDs are unique within one World.
type NodeID string

// Message is a unit of communication between simulated processes. Payloads
// are arbitrary Go values that the simulated network never serializes or
// copies: a sender hands its payload over and never writes to it again, and
// receivers treat it as immutable — it may be shared with other receivers
// (one commit's watch batch, one decoded object per revision) and with
// checkpoint forks on other goroutines (DESIGN.md §12, "Object ownership").
//
// The message itself is the network's, not the receiver's: a handler,
// observer, interceptor or gate may read it only until the call it was
// handed in returns, and keeps a copy of whatever it needs beyond that. Once
// nothing queued holds it, the network reuses it for a later send (DESIGN.md
// §13, "Message ownership").
type Message struct {
	Seq     uint64 // unique, monotonically increasing per network
	From    NodeID
	To      NodeID
	Kind    string // coarse classification used by interceptors ("watch", "rpc", ...)
	Payload any    // the body; on an RPC request or response, the call's body
	SentAt  Time

	// The RPC envelope: Method is the method an RPC request calls or an
	// RPC response answers (nil on any other message), Call is, on a
	// response, the Seq of the request it answers (0 on anything else), and
	// Err is a response's remote error (empty on success).
	Method *Method
	Call   uint64
	Err    string

	// link is the record of the From->To link, resolved once at Send: the
	// delivery reads the partition, the receiver and its down flag through
	// it, and an RPC reply goes out on its reverse.
	link *link
	// holds counts who keeps the message past the call that handed it out:
	// its sender until send returns, each queued delivery of it and a
	// pending call's timeout. The last to let go (release) returns it to
	// its network.
	holds int32
}

func (m *Message) String() string {
	return fmt.Sprintf("#%d %s->%s %s @%s", m.Seq, m.From, m.To, m.Kind, m.SentAt)
}

// Handler receives messages addressed to a node.
type Handler interface {
	HandleMessage(m *Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(m *Message)

// HandleMessage calls f(m).
func (f HandlerFunc) HandleMessage(m *Message) { f(m) }

// Verdict is an interceptor's ruling on an in-flight message.
type Verdict int

const (
	// Pass lets the message continue to later interceptors / delivery.
	Pass Verdict = iota
	// Drop discards the message permanently (models a lost notification).
	Drop
	// Delay delivers the message after Decision.Delay extra virtual time.
	Delay
)

func (v Verdict) String() string {
	switch v {
	case Pass:
		return "pass"
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Decision is returned by an Interceptor for each message.
type Decision struct {
	Verdict Verdict
	Delay   Duration // extra delay when Verdict == Delay
}

// Interceptor inspects every message before delivery. The perturbation
// engine (internal/core) and the fault baselines implement this interface;
// it is the paper's "regulating how (H', S') advances at one component".
type Interceptor interface {
	Intercept(m *Message) Decision
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(m *Message) Decision

// Intercept calls f(m).
func (f InterceptorFunc) Intercept(m *Message) Decision { return f(m) }

// Observer is notified of message lifecycle events; the trace recorder
// implements it.
type Observer interface {
	OnSend(m *Message)
	OnDeliver(m *Message)
	OnDrop(m *Message, reason string)
}

// DeliveryGate rules on a message at DELIVERY time — after partition and
// receiver-down checks, immediately before observers and the handler run.
// This is the systematic explorer's choice-point surface: unlike an
// Interceptor (which sees messages at send time, before crashes and
// partitions have had their say), a gate sees exactly the arrival stream
// the receiver would observe, so occurrence counting at the gate matches
// the trace recorder's delivery coordinates.
//
// Every registered gate sees every arriving message, in registration
// order, and the first non-Pass verdict wins. Evaluating all gates (rather
// than short-circuiting) keeps each gate's internal counters a pure
// function of the arrival stream, independent of what other gates decide
// about the same message. A Delay verdict re-enqueues the message; it will
// re-enter every gate on re-arrival, so stateful gates must remember
// ruled-on sequence numbers to avoid re-matching their own deferral.
type DeliveryGate interface {
	OnArrival(m *Message) Decision
}

// DeliveryGateFunc adapts a function to the DeliveryGate interface.
type DeliveryGateFunc func(m *Message) Decision

// OnArrival calls f(m).
func (f DeliveryGateFunc) OnArrival(m *Message) Decision { return f(m) }

// Location places a node in the physical topology: the rack it sits in,
// an availability zone, and a datacenter. Empty fields mean "unplaced";
// a node with a zero Location is outside the topology entirely and keeps
// the network's base latency on all of its links.
type Location struct {
	Rack string
	Zone string
	DC   string
}

// IsZero reports whether the location is entirely unset.
func (l Location) IsZero() bool { return l == Location{} }

func (l Location) String() string {
	return fmt.Sprintf("dc=%s zone=%s rack=%s", l.DC, l.Zone, l.Rack)
}

// TopologyLatency is the topology-derived one-way latency ladder:
// intra-rack < intra-DC < cross-DC. A zero value disables topology
// latencies (every link uses the network's base latency). Latency class
// selection is a pure function of the two endpoints' Locations — healthy
// links draw zero RNG beyond the base jitter, so unperturbed runs on
// unlabeled worlds stay byte-identical with this feature compiled in.
type TopologyLatency struct {
	IntraRack Duration
	IntraDC   Duration
	CrossDC   Duration
}

// active reports whether any class latency is configured.
func (t TopologyLatency) active() bool { return t != TopologyLatency{} }

// classFor returns the class latency between two placed endpoints:
// different DCs are CrossDC, the same non-empty rack is IntraRack, and
// everything else (same DC, different or unknown racks) is IntraDC.
func (t TopologyLatency) classFor(a, b Location) Duration {
	if a.DC != b.DC {
		return t.CrossDC
	}
	if a.Rack != "" && a.Rack == b.Rack {
		return t.IntraRack
	}
	return t.IntraDC
}

type linkKey struct{ from, to NodeID }

// linkState is the routing state of one directed link, what a snapshot
// carries by value. The zero value is a healthy, connected link that has
// carried nothing.
type linkState struct {
	partitioned bool
	extraDelay  Duration
	lastAt      Time        // FIFO frontier (stream ordering)
	quality     LinkQuality // the zero value is a healthy link
}

// link is everything the network knows about one directed link: one record
// per pair that was ever configured or sent on. Besides its state it holds
// what a message needs on the way, the records of its two endpoints, whose
// handler, down flag and placement it reads as they stand. A sender that
// keeps the record (an RPC client, a reply on its request's link) sends
// with no lookup at all.
type link struct {
	linkState
	key      linkKey
	net      *Network // whose spare list a message sent on it returns to
	from, to *endpoint
	reverse  *link  // the to->from record, once something has gone back
	lane     uint32 // the kernel lane of its in-order deliveries, once one is sent
	// base is the link's base latency as of the network's placement
	// generation placedAt (baseLatency).
	base     Duration
	placedAt uint64
}

// endpoint is one node ID as the network knows it: its handler (nil until
// it registers), whether it is down, and its placement.
type endpoint struct {
	h    Handler
	down bool
	loc  Location
}

// LinkQuality models a degraded-but-alive (gray-failure) link: latency
// inflation, probabilistic loss, duplication, and bounded reorder. All
// randomness is drawn from the kernel RNG, so a given seed yields the same
// degraded schedule every run. A zero LinkQuality is a healthy link.
type LinkQuality struct {
	ExtraLatency   Duration // added to every message's one-way latency
	ExtraJitter    Duration // extra uniform jitter in [0, ExtraJitter)
	DropPercent    int      // probability (0-100) a message is lost
	DupPercent     int      // probability (0-100) a message is delivered twice
	ReorderPercent int      // probability (0-100) a message may overtake/lag its stream
	ReorderDelay   Duration // bound on reorder displacement (default 10ms)
}

// active reports whether any degradation is configured.
func (q LinkQuality) active() bool {
	return q.ExtraLatency > 0 || q.ExtraJitter > 0 ||
		q.DropPercent > 0 || q.DupPercent > 0 || q.ReorderPercent > 0
}

func (q LinkQuality) String() string {
	return fmt.Sprintf("lat+%s jit+%s drop%d%% dup%d%% reorder%d%%",
		q.ExtraLatency, q.ExtraJitter, q.DropPercent, q.DupPercent, q.ReorderPercent)
}

// NetStats aggregates network-level counters.
type NetStats struct {
	Sent        uint64
	Delivered   uint64
	Dropped     uint64
	PartitionRx uint64 // drops due to partitions
	DownRx      uint64 // drops due to crashed receivers
	FlakyDrops  uint64 // drops due to LinkQuality.DropPercent
	Duplicated  uint64 // extra deliveries due to LinkQuality.DupPercent
	Reordered   uint64 // messages released from FIFO ordering by LinkQuality.ReorderPercent
}

// Network routes messages between registered nodes with per-link latency,
// partitions, and interceptor hooks. All delivery happens through kernel
// events, so interleavings are deterministic.
type Network struct {
	k       *Kernel
	nodes   map[NodeID]*endpoint
	links   map[linkKey]*link
	latency Duration
	jitter  Duration
	seq     uint64
	topo    TopologyLatency
	placed  uint64 // the placement generation: moves with every location and ladder change
	icpts   []Interceptor
	gates   []DeliveryGate
	obs     []Observer
	stats   NetStats

	// deliverFn is n.deliver bound once, so scheduling a delivery allocates
	// no method value and no closure (Kernel.atDeliver).
	deliverFn func(*Message)

	// msgChunk is the arena new messages are cut from (one make per
	// msgChunkSize), msgNext its first unused message: an index, so handing
	// one out stores no pointer. spare are the messages nothing holds any
	// more (Message.release), handed out again before the chunk is cut.
	msgChunk []Message
	msgNext  int
	spare    []*Message
}

// msgChunkSize is how many messages one chunk holds: 80 of 128 bytes fill
// the runtime's 10 KiB size class.
const msgChunkSize = 80

// newMessage hands out a message the caller overwrites field by field: a
// spare one if there is any, else the chunk's next.
func (n *Network) newMessage() *Message {
	if k := len(n.spare); k > 0 {
		m := n.spare[k-1]
		n.spare = n.spare[:k-1]
		return m
	}
	if n.msgNext == len(n.msgChunk) {
		n.msgChunk, n.msgNext = make([]Message, msgChunkSize), 0
	}
	m := &n.msgChunk[n.msgNext]
	n.msgNext++
	return m
}

// release lets go of one hold on m. The last hold returns it to the spare
// list of the network that sent it. A message no network sent (a kernel
// test's) has no link and is nobody's to reuse.
func (m *Message) release() {
	m.holds--
	if m.holds != 0 || m.link == nil {
		return
	}
	if keepReleased != nil {
		keepReleased(m)
		return
	}
	// Only the payload is cleared, so a spare message keeps no body alive:
	// the next send writes every field, and a whole-struct clear would pay
	// a bulk write barrier.
	m.Payload = nil
	n := m.link.net
	n.spare = append(n.spare, m)
}

// keepReleased, when set, takes every released message instead of the
// spare list: a test keeps released messages from being reused, and may
// scribble over them, so a holder that reads a message after letting go
// reads nonsense.
var keepReleased func(*Message)

// NewNetwork creates a network on kernel k with the given base one-way
// latency and uniform jitter in [0, jitter).
func NewNetwork(k *Kernel, latency, jitter Duration) *Network {
	n := &Network{
		k:       k,
		nodes:   make(map[NodeID]*endpoint),
		links:   make(map[linkKey]*link),
		latency: latency,
		jitter:  jitter,
		placed:  1,
	}
	n.deliverFn = n.deliver
	return n
}

// endpoint returns the record of node id, creating it if there is none.
func (n *Network) endpoint(id NodeID) *endpoint {
	ep := n.nodes[id]
	if ep == nil {
		ep = new(endpoint)
		n.nodes[id] = ep
	}
	return ep
}

// link returns the record of the directed link from->to, creating it if the
// link has none yet. Only senders and the setters call it; read-only paths
// (Partitioned, LinkQualityOf) index n.links directly and treat a missing
// record as the zero value, so a query never grows the table.
func (n *Network) link(key linkKey) *link {
	l := n.links[key]
	if l == nil {
		l = new(link)
		n.wire(key, l)
	}
	return l
}

// wire enters l in the table as the record of key, joined to its
// endpoints.
func (n *Network) wire(key linkKey, l *link) {
	l.key, l.net = key, n
	l.from, l.to = n.endpoint(key.from), n.endpoint(key.to)
	n.links[key] = l
}

// back returns the record of l's reverse link, resolving it once.
func (n *Network) back(l *link) *link {
	if l.reverse == nil {
		l.reverse = n.link(linkKey{l.key.to, l.key.from})
		l.reverse.reverse = l
	}
	return l.reverse
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() NetStats { return n.stats }

// Register attaches handler h as node id. Registering an existing id
// replaces its handler (store.ReplicaServer takes over its raft node's).
// Whether the node is down is left as it is: a crash and a restart
// (World.Crash, World.Restart) are what change it.
func (n *Network) Register(id NodeID, h Handler) {
	n.endpoint(id).h = h
}

// SetDown marks a node crashed (true) or alive (false). Messages to a down
// node are dropped, like packets to a dead host.
func (n *Network) SetDown(id NodeID, down bool) {
	n.endpoint(id).down = down
}

// Down reports whether a node is marked crashed.
func (n *Network) Down(id NodeID) bool {
	ep := n.nodes[id]
	return ep != nil && ep.down
}

// Nodes returns the sorted IDs of all registered nodes.
func (n *Network) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes))
	for id, ep := range n.nodes {
		if ep.h != nil {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AddInterceptor appends an interceptor; interceptors run in registration
// order and the first non-Pass decision wins.
func (n *Network) AddInterceptor(i Interceptor) { n.icpts = append(n.icpts, i) }

// AddDeliveryGate appends a delivery gate; gates run in registration order
// on every arriving message and the first non-Pass verdict wins.
func (n *Network) AddDeliveryGate(g DeliveryGate) { n.gates = append(n.gates, g) }

// AddObserver appends a lifecycle observer.
func (n *Network) AddObserver(o Observer) { n.obs = append(n.obs, o) }

// Partition cuts both directions between a and b.
func (n *Network) Partition(a, b NodeID) {
	n.setPartition(a, b, true)
	n.setPartition(b, a, true)
}

// Heal restores both directions between a and b.
func (n *Network) Heal(a, b NodeID) {
	n.setPartition(a, b, false)
	n.setPartition(b, a, false)
}

func (n *Network) setPartition(from, to NodeID, v bool) {
	n.link(linkKey{from, to}).partitioned = v
}

// Partitioned reports whether the directed link from->to is cut.
func (n *Network) Partitioned(from, to NodeID) bool {
	l := n.links[linkKey{from, to}]
	return l != nil && l.partitioned
}

// SetLinkDelay adds extra one-way delay on the directed link from->to.
func (n *Network) SetLinkDelay(from, to NodeID, d Duration) {
	n.link(linkKey{from, to}).extraDelay = d
}

// SetLinkQuality degrades both directions between a and b. A zero-value
// LinkQuality restores the link to healthy (equivalent to ClearLinkQuality).
func (n *Network) SetLinkQuality(a, b NodeID, q LinkQuality) {
	n.SetLinkQualityOneWay(a, b, q)
	n.SetLinkQualityOneWay(b, a, q)
}

// SetLinkQualityOneWay degrades only messages from->to.
func (n *Network) SetLinkQualityOneWay(from, to NodeID, q LinkQuality) {
	if !q.active() {
		q = LinkQuality{} // a link is degraded exactly when its quality is non-zero
	}
	n.link(linkKey{from, to}).quality = q
}

// ClearLinkQuality restores both directions between a and b to healthy.
func (n *Network) ClearLinkQuality(a, b NodeID) {
	n.SetLinkQuality(a, b, LinkQuality{})
}

// SetLocation places node id in the topology. A zero Location removes the
// placement (the node reverts to base latency on all links).
func (n *Network) SetLocation(id NodeID, loc Location) {
	n.endpoint(id).loc = loc
	n.placed++
}

// LocationOf returns a node's placement (the zero value if unplaced).
func (n *Network) LocationOf(id NodeID) Location {
	if ep := n.nodes[id]; ep != nil {
		return ep.loc
	}
	return Location{}
}

// SetTopologyLatency installs the topology latency ladder. A zero value
// disables topology-derived latencies.
func (n *Network) SetTopologyLatency(t TopologyLatency) {
	n.topo = t
	n.placed++
}

// Topology returns the configured latency ladder.
func (n *Network) Topology() TopologyLatency { return n.topo }

// baseLatency returns the one-way base latency of link l: the topology
// class latency when a ladder is configured and both endpoints are placed,
// the network-wide base otherwise. It reads the endpoints' records, so a
// placement made after the link's first message counts from the next; the
// link keeps the answer until a placement or the ladder changes. No RNG is
// consumed, so topology-free worlds keep the exact draw sequence they
// always had.
func (n *Network) baseLatency(l *link) Duration {
	if l.placedAt != n.placed {
		l.base, l.placedAt = n.latency, n.placed
		if n.topo.active() && !l.from.loc.IsZero() && !l.to.loc.IsZero() {
			l.base = n.topo.classFor(l.from.loc, l.to.loc)
		}
	}
	return l.base
}

// reorderBound returns the displacement bound for reorder/duplicate
// scheduling on a degraded link.
func (q LinkQuality) reorderBound() Duration {
	if q.ReorderDelay > 0 {
		return q.ReorderDelay
	}
	return 10 * Millisecond
}

// Send enqueues a message for delivery. It returns the message's unique
// sequence number.
func (n *Network) Send(from, to NodeID, kind string, payload any) uint64 {
	return n.post(n.link(linkKey{from, to}), kind, payload)
}

// Route is a sender's hold on one directed link, resolved once: a
// component that sends to one peer over and over — a watch stream's pushes
// — keeps it, as an RPC client keeps its links, and SendOn finds the link
// with no lookup. A route belongs to the network that resolved it; a
// component restored into another world resolves its routes there anew.
type Route struct{ l *link }

// Route returns the route of the directed link from->to, creating the
// link's record if it has none yet, as a Send would.
func (n *Network) Route(from, to NodeID) Route { return Route{n.link(linkKey{from, to})} }

// SendOn is Send on a route this network resolved.
func (n *Network) SendOn(r Route, kind string, payload any) uint64 {
	return n.post(r.l, kind, payload)
}

// post sends a message no one answers and returns its Seq.
func (n *Network) post(l *link, kind string, payload any) uint64 {
	m := n.send(l, kind, payload, nil, 0, "")
	seq := m.Seq
	m.release()
	return seq
}

// send is Send on a resolved link, with the RPC envelope. It returns the
// message with the sender's hold on it, which the caller releases once it
// has armed whatever else keeps it.
func (n *Network) send(l *link, kind string, payload any, method *Method, call uint64, err string) *Message {
	n.seq++
	// Field by field: a composite literal assigned through m is a typed
	// copy, which pays a bulk write barrier whenever the collector is
	// marking.
	m := n.newMessage()
	m.Seq, m.From, m.To, m.Kind, m.Payload, m.SentAt, m.link = n.seq, l.key.from, l.key.to, kind, payload, n.k.now, l
	m.Method, m.Call, m.Err, m.holds = method, call, err, 1
	n.stats.Sent++
	for _, o := range n.obs {
		o.OnSend(m)
	}

	// Everything below reads and writes the record through l, so an
	// interceptor that reconfigures the link is seen.
	if l.partitioned {
		n.stats.Dropped++
		n.stats.PartitionRx++
		n.drop(m, "partitioned")
		return m
	}

	var extra Duration
	for _, ic := range n.icpts {
		d := ic.Intercept(m)
		switch d.Verdict {
		case Pass:
			continue
		case Drop:
			n.stats.Dropped++
			n.drop(m, "intercepted")
			return m
		case Delay:
			extra += d.Delay
		}
	}

	// Gray-failure link quality. Every RNG draw below is gated on the link
	// actually being degraded, so runs without LinkQuality consume exactly
	// the RNG sequence they always did — perturbation-free executions stay
	// byte-identical with or without this feature compiled in.
	q := l.quality
	degraded := q.active()
	if degraded && q.DropPercent > 0 && n.k.Rand().Intn(100) < q.DropPercent {
		n.stats.Dropped++
		n.stats.FlakyDrops++
		n.drop(m, "link-drop")
		return m
	}

	lat := n.baseLatency(l) + l.extraDelay + extra
	if n.jitter > 0 {
		lat += Duration(n.k.Rand().Int63n(int64(n.jitter)))
	}
	if degraded {
		lat += q.ExtraLatency
		if q.ExtraJitter > 0 {
			lat += Duration(n.k.Rand().Int63n(int64(q.ExtraJitter)))
		}
	}

	// Per-link FIFO: messages between the same pair model an ordered
	// stream (TCP); jitter and interceptor delays may stretch the link but
	// never reorder it. Reordering is only possible through a degraded link's
	// ReorderPercent below.
	deliverAt := n.k.Now().Add(lat)
	if degraded && q.ReorderPercent > 0 && n.k.Rand().Intn(100) < q.ReorderPercent {
		// Bounded reorder: this message escapes the FIFO frontier. It
		// neither respects nor advances lastAt, so it can overtake earlier
		// in-flight messages or lag later ones, displaced by at most
		// reorderBound extra time. It waits in the kernel's heap, in no lane.
		deliverAt = deliverAt.Add(Duration(n.k.Rand().Int63n(int64(q.reorderBound())) + 1))
		n.stats.Reordered++
		n.k.atDeliver(deliverAt, n.deliverFn, m, 0)
	} else {
		if deliverAt < l.lastAt {
			deliverAt = l.lastAt
		}
		l.lastAt = deliverAt
		// In order on its link: the delivery joins the link's lane.
		if l.lane == 0 {
			l.lane = n.k.newLane()
		}
		n.k.atDeliver(deliverAt, n.deliverFn, m, l.lane)
	}

	if degraded && q.DupPercent > 0 && n.k.Rand().Intn(100) < q.DupPercent {
		// Duplicate delivery: the same message arrives a second time a
		// bounded interval after the first copy (at-least-once delivery,
		// e.g. a retried watch notification).
		dupAt := deliverAt.Add(Duration(n.k.Rand().Int63n(int64(q.reorderBound())) + 1))
		n.stats.Duplicated++
		n.k.atDeliver(dupAt, n.deliverFn, m, 0)
	}
	return m
}

// deliver reads everything it checks through the message's link record.
func (n *Network) deliver(m *Message) {
	l := m.link
	if l.partitioned {
		n.stats.Dropped++
		n.stats.PartitionRx++
		n.drop(m, "partitioned-in-flight")
		return
	}
	if l.to.down {
		n.stats.Dropped++
		n.stats.DownRx++
		n.drop(m, "receiver-down")
		return
	}
	h := l.to.h
	if h == nil {
		n.stats.Dropped++
		n.drop(m, "no-such-node")
		return
	}
	if len(n.gates) > 0 {
		// All gates see the arrival (their counters track the same stream);
		// the first non-Pass verdict decides the message's fate.
		verdict, delay := Pass, Duration(0)
		for _, g := range n.gates {
			d := g.OnArrival(m)
			if d.Verdict != Pass && verdict == Pass {
				verdict, delay = d.Verdict, d.Delay
			}
		}
		switch verdict {
		case Drop:
			n.stats.Dropped++
			n.drop(m, "gated")
			return
		case Delay:
			if delay <= 0 {
				delay = Millisecond
			}
			n.k.atDeliver(n.k.Now().Add(delay), n.deliverFn, m, 0)
			return
		}
	}
	n.stats.Delivered++
	for _, o := range n.obs {
		o.OnDeliver(m)
	}
	h.HandleMessage(m)
}

func (n *Network) drop(m *Message, reason string) {
	for _, o := range n.obs {
		o.OnDrop(m, reason)
	}
}
