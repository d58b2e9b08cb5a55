package store

// CompactedRevision returns the newest revision that has been compacted
// away (0 when nothing was compacted).
func (s *Store) CompactedRevision() int64 { return s.compacted }

// Store returns the replica's local applied store.
func (r *ReplicaServer) Store() *Store { return r.st }
