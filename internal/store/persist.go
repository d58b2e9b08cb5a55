package store

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/wal"
)

// walRecord is the durable form of one committed mutation.
type walRecord struct {
	Op    string `json:"op"` // "put" | "delete"
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
	Time  int64  `json:"time"`
}

// PersistTo hooks every subsequent commit into the given WAL, so the
// store's full history of mutations is durable.
func (s *Store) PersistTo(l *wal.Log) {
	s.AddNotifyHook(func(events []history.Event) {
		for _, e := range events {
			rec := walRecord{Key: e.Key, Time: e.Time}
			switch e.Type {
			case history.Put:
				rec.Op = "put"
				rec.Value = e.Value
			case history.Delete:
				rec.Op = "delete"
			}
			if _, err := l.Append(rec); err != nil {
				panic(fmt.Sprintf("store: wal persist: %v", err))
			}
		}
	})
}

// RecoverFromWAL rebuilds a store by replaying a WAL produced by
// PersistTo. Replaying the same mutation sequence regenerates identical
// revisions, so the recovered (H, S) matches the original exactly.
func RecoverFromWAL(l *wal.Log) (*Store, error) {
	s := New()
	err := wal.Replay(l, func(index uint64, rec walRecord) error {
		s.SetNow(rec.Time)
		switch rec.Op {
		case "put":
			s.Put(rec.Key, rec.Value)
		case "delete":
			if _, err := s.Delete(rec.Key); err != nil {
				return fmt.Errorf("store: recover record %d: %w", index, err)
			}
		default:
			return fmt.Errorf("store: recover record %d: unknown op %q", index, rec.Op)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}
