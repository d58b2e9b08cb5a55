// Package leasecache implements Gray & Cheriton leases [23 in the paper]:
// clients cache values under a time-bounded lease, and a writer must
// invalidate (or outwait) every outstanding lease before its write commits.
//
// The paper's §4.1 invokes leases as the classical alternative to the
// watch-cache design: they *eliminate* staleness at leaseholders, but
// "this sacrifices performance because writes are blocked until every
// leaseholder approves the write or the lease term expires". Experiment E8
// measures exactly that trade-off against the watch-cache path.
package leasecache

import (
	"repro/internal/sim"
)

// Protocol messages.
type (
	// readReq asks for the current value plus a read lease.
	readReq struct {
		Key   string
		SubID uint64
	}
	// readResp grants the lease.
	readResp struct {
		SubID     uint64
		Key       string
		Value     []byte
		Version   uint64
		ExpiresAt sim.Time
	}
	// writeReq asks the server to commit a new value.
	writeReq struct {
		Key   string
		Value []byte
		SubID uint64
	}
	// writeResp acknowledges the committed write.
	writeResp struct {
		SubID   uint64
		Version uint64
	}
	// invalidate revokes a holder's lease on a key.
	invalidate struct {
		Key     string
		Version uint64
	}
	// invalidateAck confirms the holder dropped its cache entry.
	invalidateAck struct {
		Key    string
		Holder sim.NodeID
	}
)

type leaseGrant struct {
	holder    sim.NodeID
	expiresAt sim.Time
}

type pendingWrite struct {
	key     string
	value   []byte
	client  sim.NodeID
	subID   uint64
	waiting map[sim.NodeID]bool
	timer   sim.Timer
}

// Server owns the authoritative values and the lease table.
type Server struct {
	id    sim.NodeID
	world *sim.World
	ttl   sim.Duration

	values   map[string][]byte
	versions map[string]uint64
	leases   map[string][]leaseGrant
	writes   []*pendingWrite

	// Metrics.
	Reads         uint64
	Writes        uint64
	Invalidations uint64
	ExpiryWaits   uint64 // writes that had to out-wait an unreachable holder
	LeasesGranted uint64
}

// NewServer wires a lease server into the world.
func NewServer(w *sim.World, id sim.NodeID, ttl sim.Duration) *Server {
	s := &Server{
		id:       id,
		world:    w,
		ttl:      ttl,
		values:   make(map[string][]byte),
		versions: make(map[string]uint64),
		leases:   make(map[string][]leaseGrant),
	}
	w.Network().Register(id, s)
	return s
}

// ID returns the server's node ID.
func (s *Server) ID() sim.NodeID { return s.id }

// Crash/Restart are not modelled for the lease server (it stands in for
// the replicated store, which stays up in E8).

// HandleMessage implements sim.Handler.
func (s *Server) HandleMessage(m *sim.Message) {
	switch req := m.Payload.(type) {
	case *readReq:
		s.onRead(m.From, req)
	case *writeReq:
		s.onWrite(m.From, req)
	case *invalidateAck:
		s.onAck(req)
	}
}

func (s *Server) onRead(from sim.NodeID, req *readReq) {
	s.Reads++
	exp := s.world.Now().Add(s.ttl)
	if s.writePending(req.Key) {
		// A write is waiting for invalidations: granting a new lease now
		// would let a reader cache a value that is about to change without
		// ever being invalidated. Serve the current value uncacheable.
		exp = s.world.Now()
	}
	if s.ttl > 0 && exp > s.world.Now() {
		s.leases[req.Key] = append(s.pruned(req.Key), leaseGrant{holder: from, expiresAt: exp})
		s.LeasesGranted++
	}
	s.world.Network().Send(s.id, from, "lease.read-resp", &readResp{
		SubID:     req.SubID,
		Key:       req.Key,
		Value:     append([]byte(nil), s.values[req.Key]...),
		Version:   s.versions[req.Key],
		ExpiresAt: exp,
	})
}

// pruned drops expired grants for key.
func (s *Server) pruned(key string) []leaseGrant {
	now := s.world.Now()
	var out []leaseGrant
	for _, g := range s.leases[key] {
		if g.expiresAt > now {
			out = append(out, g)
		}
	}
	return out
}

func (s *Server) onWrite(from sim.NodeID, req *writeReq) {
	s.Writes++
	holders := s.pruned(req.Key)
	pw := &pendingWrite{
		key:     req.Key,
		value:   req.Value,
		client:  from,
		subID:   req.SubID,
		waiting: make(map[sim.NodeID]bool),
	}
	for _, g := range holders {
		if g.holder == from {
			continue // the writer's own lease does not block it
		}
		pw.waiting[g.holder] = true
		s.Invalidations++
		s.world.Network().Send(s.id, g.holder, "lease.invalidate",
			&invalidate{Key: req.Key, Version: s.versions[req.Key]})
	}
	if len(pw.waiting) == 0 {
		s.commit(pw)
		return
	}
	s.writes = append(s.writes, pw)
	// Fallback: if an invalidation ack never arrives (crashed or
	// partitioned holder), the write proceeds when the last lease term
	// expires — the blocking cost §4.1 describes.
	var latest sim.Time
	for _, g := range holders {
		if g.expiresAt > latest {
			latest = g.expiresAt
		}
	}
	wait := latest.Sub(s.world.Now())
	if wait < 0 {
		wait = 0
	}
	pw.timer = s.world.Kernel().Schedule(wait, func() {
		if s.stillPending(pw) {
			s.ExpiryWaits++
			s.finish(pw)
		}
	})
}

// writePending reports whether any write on key awaits invalidations.
func (s *Server) writePending(key string) bool {
	for _, w := range s.writes {
		if w.key == key {
			return true
		}
	}
	return false
}

func (s *Server) stillPending(pw *pendingWrite) bool {
	for _, w := range s.writes {
		if w == pw {
			return true
		}
	}
	return false
}

func (s *Server) onAck(ack *invalidateAck) {
	for _, pw := range append([]*pendingWrite(nil), s.writes...) {
		if pw.key != ack.Key {
			continue
		}
		delete(pw.waiting, ack.Holder)
		if len(pw.waiting) == 0 {
			s.finish(pw)
		}
	}
}

func (s *Server) finish(pw *pendingWrite) {
	for i, w := range s.writes {
		if w == pw {
			s.writes = append(s.writes[:i], s.writes[i+1:]...)
			break
		}
	}
	pw.timer.Cancel()
	// All leases on the key are void now.
	delete(s.leases, pw.key)
	s.commit(pw)
}

func (s *Server) commit(pw *pendingWrite) {
	s.versions[pw.key]++
	s.values[pw.key] = append([]byte(nil), pw.value...)
	s.world.Network().Send(s.id, pw.client, "lease.write-resp",
		&writeResp{SubID: pw.subID, Version: s.versions[pw.key]})
}

type cacheEntry struct {
	value     []byte
	version   uint64
	expiresAt sim.Time
}

// Client caches values under leases and answers invalidations.
type Client struct {
	id     sim.NodeID
	world  *sim.World
	server sim.NodeID

	cache   map[string]cacheEntry
	nextSub uint64
	pending map[uint64]func([]byte, uint64)
	writes  map[uint64]func(uint64)

	// Metrics.
	LocalHits   uint64
	ServerReads uint64
	Invalidated uint64
}

// NewClient wires a caching client into the world.
func NewClient(w *sim.World, id, server sim.NodeID) *Client {
	c := &Client{
		id:      id,
		world:   w,
		server:  server,
		cache:   make(map[string]cacheEntry),
		pending: make(map[uint64]func([]byte, uint64)),
		writes:  make(map[uint64]func(uint64)),
	}
	w.Network().Register(id, c)
	return c
}

// ID returns the client's node ID.
func (c *Client) ID() sim.NodeID { return c.id }

// HandleMessage implements sim.Handler.
func (c *Client) HandleMessage(m *sim.Message) {
	switch msg := m.Payload.(type) {
	case *readResp:
		cb, ok := c.pending[msg.SubID]
		if !ok {
			return
		}
		delete(c.pending, msg.SubID)
		c.cache[msg.Key] = cacheEntry{
			value:     append([]byte(nil), msg.Value...),
			version:   msg.Version,
			expiresAt: msg.ExpiresAt,
		}
		cb(append([]byte(nil), msg.Value...), msg.Version)
	case *writeResp:
		if cb, ok := c.writes[msg.SubID]; ok {
			delete(c.writes, msg.SubID)
			cb(msg.Version)
		}
	case *invalidate:
		c.Invalidated++
		delete(c.cache, msg.Key)
		c.world.Network().Send(c.id, c.server, "lease.invalidate-ack",
			&invalidateAck{Key: msg.Key, Holder: c.id})
	}
}

// Read returns the key's value: from the local cache while the lease is
// valid (zero network cost), otherwise via the server (one round trip plus
// a fresh lease). cb receives the value and its version.
func (c *Client) Read(key string, cb func(value []byte, version uint64)) {
	if e, ok := c.cache[key]; ok && e.expiresAt > c.world.Now() {
		c.LocalHits++
		cb(append([]byte(nil), e.value...), e.version)
		return
	}
	c.ServerReads++
	c.nextSub++
	sub := c.nextSub
	c.pending[sub] = cb
	c.world.Network().Send(c.id, c.server, "lease.read-req", &readReq{Key: key, SubID: sub})
}

// Write commits key=value through the server; cb runs when the write has
// invalidated or outwaited every lease.
func (c *Client) Write(key string, value []byte, cb func(version uint64)) {
	delete(c.cache, key) // local copy is about to be stale
	c.nextSub++
	sub := c.nextSub
	c.writes[sub] = cb
	c.world.Network().Send(c.id, c.server, "lease.write-req", &writeReq{Key: key, Value: value, SubID: sub})
}
