package store

import (
	"strings"

	"repro/internal/sim"
)

// CompactedRevision returns the newest revision that has been compacted
// away (0 when nothing was compacted).
func (s *Store) CompactedRevision() int64 { return s.compacted }

// Store returns the replica's local applied store.
func (r *ReplicaServer) Store() *Store { return r.st }

// IsNotLeader reports whether err (possibly remote) is a not-leader
// rejection, and extracts the leader hint if present.
func IsNotLeader(err error) (sim.NodeID, bool) {
	if err == nil {
		return "", false
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, ErrNotLeader.Error()) {
		return "", false
	}
	if i := strings.LastIndex(msg, "leader="); i >= 0 {
		return sim.NodeID(msg[i+len("leader="):]), true
	}
	return "", true
}
