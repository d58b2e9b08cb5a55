// Package raftlite implements the replication layer beneath the
// strongly-consistent store: leader election with randomized timeouts, log
// replication with consistency checks, majority commit, and in-order
// apply — a compact Raft (Ongaro & Ousterhout) without membership changes
// or snapshot transfer.
//
// It exists because the paper's model rests on the premise that H contains
// only *fully committed* events (§3 footnote 1): raftlite is the mechanism
// that makes commit well-defined for a 3- or 5-node store cluster, and its
// tests demonstrate that a follower's applied prefix is always a prefix of
// the committed history — the replication-layer analog of H' ⊆ H.
package raftlite

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/wal"
)

// Role is a node's current raft role.
type Role int

// Raft roles.
const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Leader:
		return "leader"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Entry is one replicated log entry.
type Entry struct {
	Term  uint64
	Index uint64
	Data  []byte
}

// Messages.
type (
	// RequestVote solicits a vote for a candidacy.
	RequestVote struct {
		Term         uint64
		Candidate    sim.NodeID
		LastLogIndex uint64
		LastLogTerm  uint64
	}
	// VoteResponse answers a RequestVote.
	VoteResponse struct {
		Term    uint64
		Granted bool
	}
	// AppendEntries replicates log entries (empty = heartbeat).
	AppendEntries struct {
		Term         uint64
		Leader       sim.NodeID
		PrevLogIndex uint64
		PrevLogTerm  uint64
		Entries      []Entry
		LeaderCommit uint64
	}
	// AppendResponse answers an AppendEntries.
	AppendResponse struct {
		Term       uint64
		From       sim.NodeID
		Success    bool
		MatchIndex uint64
	}
)

// Config tunes a raft node.
type Config struct {
	// ElectionTimeoutMin/Max bound the randomized election timeout.
	ElectionTimeoutMin sim.Duration
	ElectionTimeoutMax sim.Duration
	// HeartbeatInterval is the leader's idle append cadence.
	HeartbeatInterval sim.Duration
}

// DefaultConfig returns timings suitable for the simulated 1ms network.
func DefaultConfig() Config {
	return Config{
		ElectionTimeoutMin: 150 * sim.Millisecond,
		ElectionTimeoutMax: 300 * sim.Millisecond,
		HeartbeatInterval:  50 * sim.Millisecond,
	}
}

type durableState struct {
	Term     uint64
	VotedFor sim.NodeID
}

// Node is one raft replica. Its log and vote are durable (survive crashes
// via the WAL); role, timers, and leader bookkeeping are volatile.
type Node struct {
	id    sim.NodeID
	peers []sim.NodeID // all cluster members including self
	world *sim.World
	cfg   Config
	log   *wal.Log
	apply func(e Entry) // invoked in order for every committed entry

	role        Role
	term        uint64
	votedFor    sim.NodeID
	leader      sim.NodeID
	entries     []Entry // in-memory mirror of the WAL records
	commitIndex uint64
	lastApplied uint64
	votes       map[sim.NodeID]bool
	nextIndex   map[sim.NodeID]uint64
	matchIndex  map[sim.NodeID]uint64

	down          bool
	epoch         uint64
	electionTimer sim.Timer
}

// NewNode wires a raft replica into the world. peers must list every
// member (including id) identically on every node. The WAL carries any
// state from a previous incarnation.
func NewNode(w *sim.World, id sim.NodeID, peers []sim.NodeID, cfg Config, log *wal.Log, apply func(Entry)) *Node {
	n := &Node{
		id:    id,
		peers: append([]sim.NodeID(nil), peers...),
		world: w,
		cfg:   cfg,
		log:   log,
		apply: apply,
	}
	sort.Slice(n.peers, func(i, j int) bool { return n.peers[i] < n.peers[j] })
	n.recover()
	w.Network().Register(id, n)
	w.AddProcess(n)
	n.resetElectionTimer()
	return n
}

// recover loads durable state from the WAL.
func (n *Node) recover() {
	var ds durableState
	if ok, err := n.log.GetMeta("raft", &ds); err == nil && ok {
		n.term = ds.Term
		n.votedFor = ds.VotedFor
	}
	n.entries = n.entries[:0]
	_ = wal.Replay(n.log, func(index uint64, e Entry) error {
		n.entries = append(n.entries, e)
		return nil
	})
	n.role = Follower
	n.leader = ""
	n.votes = nil
	n.commitIndex = 0
	n.lastApplied = 0
}

func (n *Node) persistMeta() {
	_ = n.log.SetMeta("raft", durableState{Term: n.term, VotedFor: n.votedFor})
}

// ID implements sim.Process.
func (n *Node) ID() sim.NodeID { return n.id }

// Role returns the node's current role.
func (n *Node) Role() Role { return n.role }

// Leader returns the node's current belief about the leader ("" unknown).
func (n *Node) Leader() sim.NodeID { return n.leader }

// CommitIndex returns the highest committed index this node knows of.
func (n *Node) CommitIndex() uint64 { return n.commitIndex }

// LastIndex returns the last log index.
func (n *Node) LastIndex() uint64 {
	if len(n.entries) == 0 {
		return 0
	}
	return n.entries[len(n.entries)-1].Index
}

func (n *Node) lastTerm() uint64 {
	if len(n.entries) == 0 {
		return 0
	}
	return n.entries[len(n.entries)-1].Term
}

// Crash implements sim.Process: volatile state is lost; WAL survives.
func (n *Node) Crash() {
	n.down = true
	n.epoch++
	n.electionTimer.Cancel()
}

// Restart implements sim.Process: recover from the WAL and rejoin.
func (n *Node) Restart() {
	n.down = false
	n.epoch++
	n.recover()
	n.resetElectionTimer()
}

// Propose appends data to the replicated log if this node is the leader.
// It returns the assigned index, or ok=false when not leader (the caller
// should retry against the current leader).
func (n *Node) Propose(data []byte) (index uint64, ok bool) {
	if n.down || n.role != Leader {
		return 0, false
	}
	e := Entry{Term: n.term, Index: n.LastIndex() + 1, Data: append([]byte(nil), data...)}
	n.appendToLog(e)
	n.broadcastAppend()
	// Single-node cluster commits immediately.
	n.advanceCommit()
	return e.Index, true
}

func (n *Node) appendToLog(e Entry) {
	n.entries = append(n.entries, e)
	if _, err := n.log.Append(e); err != nil {
		panic(fmt.Sprintf("raftlite: wal append: %v", err))
	}
	if n.matchIndex != nil {
		n.matchIndex[n.id] = e.Index
	}
}

// HandleMessage implements sim.Handler.
func (n *Node) HandleMessage(m *sim.Message) {
	if n.down {
		return
	}
	switch msg := m.Payload.(type) {
	case *RequestVote:
		n.onRequestVote(m.From, msg)
	case *VoteResponse:
		n.onVoteResponse(m.From, msg)
	case *AppendEntries:
		n.onAppendEntries(m.From, msg)
	case *AppendResponse:
		n.onAppendResponse(msg)
	}
}

func (n *Node) resetElectionTimer() {
	n.electionTimer.Cancel()
	span := int64(n.cfg.ElectionTimeoutMax - n.cfg.ElectionTimeoutMin)
	d := n.cfg.ElectionTimeoutMin
	if span > 0 {
		d += sim.Duration(n.world.Kernel().Rand().Int63n(span))
	}
	epoch := n.epoch
	n.electionTimer = n.world.Kernel().Schedule(d, func() {
		if n.down || epoch != n.epoch {
			return
		}
		n.startElection()
	})
}

func (n *Node) startElection() {
	n.role = Candidate
	n.term++
	n.votedFor = n.id
	n.leader = ""
	n.persistMeta()
	n.votes = map[sim.NodeID]bool{n.id: true}
	n.resetElectionTimer()
	if n.hasMajority(len(n.votes)) {
		n.becomeLeader()
		return
	}
	req := &RequestVote{Term: n.term, Candidate: n.id, LastLogIndex: n.LastIndex(), LastLogTerm: n.lastTerm()}
	for _, p := range n.peers {
		if p != n.id {
			n.world.Network().Send(n.id, p, "raft.vote-req", req)
		}
	}
}

func (n *Node) hasMajority(count int) bool { return count*2 > len(n.peers) }

func (n *Node) maybeStepDown(term uint64) bool {
	if term > n.term {
		n.term = term
		n.votedFor = ""
		n.role = Follower
		n.leader = ""
		n.persistMeta()
		n.resetElectionTimer()
		return true
	}
	return false
}

func (n *Node) onRequestVote(from sim.NodeID, req *RequestVote) {
	n.maybeStepDown(req.Term)
	granted := false
	if req.Term == n.term && (n.votedFor == "" || n.votedFor == req.Candidate) && n.logUpToDate(req) {
		granted = true
		n.votedFor = req.Candidate
		n.persistMeta()
		n.resetElectionTimer()
	}
	n.world.Network().Send(n.id, from, "raft.vote-resp", &VoteResponse{Term: n.term, Granted: granted})
}

// logUpToDate implements raft's §5.4.1 election restriction.
func (n *Node) logUpToDate(req *RequestVote) bool {
	if req.LastLogTerm != n.lastTerm() {
		return req.LastLogTerm > n.lastTerm()
	}
	return req.LastLogIndex >= n.LastIndex()
}

func (n *Node) onVoteResponse(from sim.NodeID, resp *VoteResponse) {
	if n.maybeStepDown(resp.Term) {
		return
	}
	if n.role != Candidate || resp.Term != n.term || !resp.Granted {
		return
	}
	n.votes[from] = true
	if n.hasMajority(len(n.votes)) {
		n.becomeLeader()
	}
}

func (n *Node) becomeLeader() {
	n.role = Leader
	n.leader = n.id
	n.nextIndex = make(map[sim.NodeID]uint64, len(n.peers))
	n.matchIndex = make(map[sim.NodeID]uint64, len(n.peers))
	for _, p := range n.peers {
		n.nextIndex[p] = n.LastIndex() + 1
		n.matchIndex[p] = 0
	}
	n.matchIndex[n.id] = n.LastIndex()
	n.electionTimer.Cancel()
	n.broadcastAppend()
	n.scheduleHeartbeat()
}

func (n *Node) scheduleHeartbeat() {
	epoch := n.epoch
	n.world.Kernel().Schedule(n.cfg.HeartbeatInterval, func() {
		if n.down || epoch != n.epoch || n.role != Leader {
			return
		}
		n.broadcastAppend()
		n.scheduleHeartbeat()
	})
}

func (n *Node) broadcastAppend() {
	for _, p := range n.peers {
		if p == n.id {
			continue
		}
		n.sendAppend(p)
	}
}

func (n *Node) sendAppend(to sim.NodeID) {
	next := n.nextIndex[to]
	if next == 0 {
		next = 1
	}
	prevIdx := next - 1
	var prevTerm uint64
	if prevIdx >= 1 && int(prevIdx) <= len(n.entries) {
		prevTerm = n.entries[prevIdx-1].Term
	}
	var batch []Entry
	if int(next) <= len(n.entries) {
		batch = append(batch, n.entries[next-1:]...)
	}
	n.world.Network().Send(n.id, to, "raft.append", &AppendEntries{
		Term:         n.term,
		Leader:       n.id,
		PrevLogIndex: prevIdx,
		PrevLogTerm:  prevTerm,
		Entries:      batch,
		LeaderCommit: n.commitIndex,
	})
}

func (n *Node) onAppendEntries(from sim.NodeID, req *AppendEntries) {
	n.maybeStepDown(req.Term)
	resp := &AppendResponse{Term: n.term, From: n.id}
	if req.Term < n.term {
		n.world.Network().Send(n.id, from, "raft.append-resp", resp)
		return
	}
	// Valid leader for this term.
	n.role = Follower
	n.leader = req.Leader
	n.resetElectionTimer()

	// Consistency check.
	if req.PrevLogIndex > 0 {
		if req.PrevLogIndex > n.LastIndex() || n.entries[req.PrevLogIndex-1].Term != req.PrevLogTerm {
			n.world.Network().Send(n.id, from, "raft.append-resp", resp)
			return
		}
	}
	// Append/overwrite entries.
	for _, e := range req.Entries {
		if e.Index <= n.LastIndex() {
			if n.entries[e.Index-1].Term == e.Term {
				continue // already have it
			}
			// Divergent suffix: truncate (both memory and WAL).
			n.entries = append([]Entry(nil), n.entries[:e.Index-1]...)
			n.log.TruncateTail(e.Index - 1)
		}
		n.entries = append(n.entries, e)
		if _, err := n.log.Append(e); err != nil {
			panic(fmt.Sprintf("raftlite: wal append: %v", err))
		}
	}
	resp.Success = true
	resp.MatchIndex = n.LastIndex()
	if req.LeaderCommit > n.commitIndex {
		ci := req.LeaderCommit
		if li := n.LastIndex(); ci > li {
			ci = li
		}
		n.commitIndex = ci
		n.applyCommitted()
	}
	n.world.Network().Send(n.id, from, "raft.append-resp", resp)
}

func (n *Node) onAppendResponse(resp *AppendResponse) {
	if n.maybeStepDown(resp.Term) {
		return
	}
	if n.role != Leader || resp.Term != n.term {
		return
	}
	if !resp.Success {
		if n.nextIndex[resp.From] > 1 {
			n.nextIndex[resp.From]--
		}
		n.sendAppend(resp.From)
		return
	}
	if resp.MatchIndex > n.matchIndex[resp.From] {
		n.matchIndex[resp.From] = resp.MatchIndex
		n.nextIndex[resp.From] = resp.MatchIndex + 1
		n.advanceCommit()
	}
}

// advanceCommit commits the highest index replicated on a majority whose
// entry is from the current term (raft's §5.4.2 rule).
func (n *Node) advanceCommit() {
	if n.role != Leader {
		return
	}
	matches := make([]uint64, 0, len(n.peers))
	for _, p := range n.peers {
		matches = append(matches, n.matchIndex[p])
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i] > matches[j] })
	majority := matches[len(n.peers)/2]
	if majority > n.commitIndex && int(majority) <= len(n.entries) &&
		n.entries[majority-1].Term == n.term {
		n.commitIndex = majority
		n.applyCommitted()
		// Let followers learn the new commit index promptly.
		n.broadcastAppend()
	}
}

func (n *Node) applyCommitted() {
	for n.lastApplied < n.commitIndex {
		n.lastApplied++
		e := n.entries[n.lastApplied-1]
		if n.apply != nil {
			n.apply(e)
		}
	}
}
