package store

// LeaseInfo returns a lease's current metadata.
func (s *Store) LeaseInfo(id LeaseID) (Lease, bool) {
	l, ok := s.leases[id]
	return l, ok
}

// CompactedRevision returns the newest revision that has been compacted
// away (0 when nothing was compacted).
func (s *Store) CompactedRevision() int64 { return s.compacted }
