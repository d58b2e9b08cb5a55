// Package wal provides a write-ahead log — the durability substrate under
// the raftlite replicas of the replicated store. In the simulated world
// "durable" means the data survives process Crash/Restart (unlike actor
// memory); records are still serialized/deserialized through encoding/json
// exactly as an on-disk implementation would, so corruption and replay
// behaviour are real.
package wal

import (
	"encoding/json"
	"fmt"
)

// Record is one durable log entry.
type Record struct {
	Index uint64 // 1-based, dense
	Data  []byte
}

// Log is an append-only record log with metadata slots and tail
// truncation.
type Log struct {
	records []Record
	meta    map[string][]byte
}

// New returns an empty log.
func New() *Log {
	return &Log{meta: make(map[string][]byte)}
}

// Append serializes v and appends it, returning the new record's index.
func (l *Log) Append(v any) (uint64, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	idx := l.LastIndex() + 1
	l.records = append(l.records, Record{Index: idx, Data: data})
	return idx, nil
}

// LastIndex returns the index of the newest record (0 if empty).
func (l *Log) LastIndex() uint64 { return uint64(len(l.records)) }

// Read returns the record at index, decoding into v (a pointer).
func (l *Log) Read(index uint64, v any) error {
	if index == 0 || index > l.LastIndex() {
		return fmt.Errorf("wal: index %d outside 1..%d", index, l.LastIndex())
	}
	rec := l.records[index-1]
	if err := json.Unmarshal(rec.Data, v); err != nil {
		return fmt.Errorf("wal: decode record %d: %w", index, err)
	}
	return nil
}

// Replay calls fn for every record in order, each decoded into a fresh T.
func Replay[T any](l *Log, fn func(index uint64, v T) error) error {
	for _, rec := range l.records {
		var v T
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("wal: replay decode %d: %w", rec.Index, err)
		}
		if err := fn(rec.Index, v); err != nil {
			return err
		}
	}
	return nil
}

// TruncateTail discards records with index > last (log repair after a
// divergent append, as raft requires).
func (l *Log) TruncateTail(last uint64) {
	if last < l.LastIndex() {
		l.records = append([]Record(nil), l.records[:last]...)
	}
}

// SetMeta stores a durable metadata value (e.g. raft term and vote).
func (l *Log) SetMeta(key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("wal: meta %q: %w", key, err)
	}
	l.meta[key] = data
	return nil
}

// GetMeta loads a metadata value into v (a pointer); it reports whether
// the key existed.
func (l *Log) GetMeta(key string, v any) (bool, error) {
	data, ok := l.meta[key]
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(data, v); err != nil {
		return true, fmt.Errorf("wal: meta %q: %w", key, err)
	}
	return true, nil
}
