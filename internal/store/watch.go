package store

import (
	"repro/internal/history"
)

// WatchHandle identifies an active watch registration.
type WatchHandle struct {
	id int64
	s  *Store
}

// Cancel removes the watch. Canceling twice is a no-op.
func (h WatchHandle) Cancel() {
	delete(h.s.watchers, h.id)
	h.s.watcherOrder = nil
}

// Watch registers notify for all committed events whose key has the given
// prefix, starting from revision startRev+1 (i.e. startRev is the last
// revision the watcher has already seen; pass the revision returned by a
// prior Range for the canonical list-then-watch pattern).
//
// Events between startRev+1 and the current revision are replayed
// synchronously before the handle is returned. If that span reaches into
// the compacted window, Watch fails with ErrCompacted and the caller must
// re-list — the forced relist is itself a partial-history hazard the paper
// highlights ([7], §4.2.3).
func (s *Store) Watch(prefix string, startRev int64, notify WatchNotify) (WatchHandle, error) {
	if startRev > s.rev {
		return WatchHandle{}, ErrFutureRevision
	}
	if startRev < s.compacted {
		return WatchHandle{}, ErrCompacted
	}
	// Replay the backlog the watcher has not seen yet.
	if startRev < s.rev {
		var backlog []history.Event
		for _, e := range s.hist.Since(startRev) {
			if hasPrefix(e.Key, prefix) {
				backlog = append(backlog, e)
			}
		}
		if len(backlog) > 0 {
			notify(backlog)
		}
	}
	s.nextWatch++
	id := s.nextWatch
	s.watchers[id] = &watcher{prefix: prefix, notify: notify}
	s.watcherOrder = nil
	return WatchHandle{id: id, s: s}, nil
}

// EventsSince returns retained events after rev with the given key prefix,
// or ErrCompacted when rev precedes the retained window.
func (s *Store) EventsSince(prefix string, rev int64) ([]history.Event, error) {
	if rev < s.compacted {
		return nil, ErrCompacted
	}
	if rev > s.rev {
		return nil, ErrFutureRevision
	}
	var out []history.Event
	for _, e := range s.hist.Since(rev) {
		if hasPrefix(e.Key, prefix) {
			out = append(out, e)
		}
	}
	return out, nil
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}
