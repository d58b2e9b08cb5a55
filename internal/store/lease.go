package store

import (
	"slices"
	"sort"
)

// LeaseID identifies a lease. 0 is "no lease".
type LeaseID int64

// Lease grants time-bounded ownership of attached keys, after Gray &
// Cheriton [23]. When a lease expires every attached key is deleted — the
// mechanism behind member liveness keys (a crashed component stops renewing
// and its registration disappears from S).
//
// The paper (§4.1) notes leases trade performance for bounded staleness;
// experiment E8 measures that trade-off.
type Lease struct {
	ID        LeaseID
	TTL       int64 // virtual nanoseconds
	ExpiresAt int64 // virtual time of expiry
}

// GrantLease creates a lease with the given TTL starting at the store's
// current virtual time.
func (s *Store) GrantLease(ttl int64) Lease {
	s.nextLease++
	l := Lease{ID: s.nextLease, TTL: ttl, ExpiresAt: s.now + ttl}
	s.leases[l.ID] = l
	return l
}

// KeepAlive renews a lease for its full TTL from the current virtual time.
func (s *Store) KeepAlive(id LeaseID) (Lease, error) {
	l, ok := s.leases[id]
	if !ok {
		return Lease{}, ErrLeaseNotFound
	}
	l.ExpiresAt = s.now + l.TTL
	s.leases[id] = l
	return l, nil
}

// RevokeLease removes a lease and deletes every attached key (each deletion
// is a committed history event). It returns the deleted keys.
func (s *Store) RevokeLease(id LeaseID) ([]string, error) {
	if _, ok := s.leases[id]; !ok {
		return nil, ErrLeaseNotFound
	}
	keys := s.leaseKeySet(id)
	for _, k := range keys {
		_, _ = s.Delete(k) // Delete detaches from the lease set.
	}
	delete(s.leases, id)
	delete(s.leaseKeys, id)
	return keys, nil
}

// ExpireDue revokes every lease whose expiry is at or before the store's
// current virtual time, returning all keys deleted as a result. The Server
// calls this from a kernel timer.
func (s *Store) ExpireDue() []string {
	var due []LeaseID
	for id, l := range s.leases {
		if l.ExpiresAt <= s.now {
			due = append(due, id)
		}
	}
	if len(due) == 0 {
		return nil // the common tick: nothing to sort, nothing to revoke
	}
	slices.Sort(due)
	var deleted []string
	for _, id := range due {
		keys, _ := s.RevokeLease(id)
		deleted = append(deleted, keys...)
	}
	return deleted
}

func (s *Store) attachLease(id LeaseID, key string) {
	set := s.leaseKeys[id]
	if set == nil {
		set = make(map[string]bool)
		s.leaseKeys[id] = set
	}
	set[key] = true
}

func (s *Store) detachLease(id LeaseID, key string) {
	if set := s.leaseKeys[id]; set != nil {
		delete(set, key)
	}
}

func (s *Store) leaseKeySet(id LeaseID) []string {
	set := s.leaseKeys[id]
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
