// Package wal provides a write-ahead log with prefix compaction — the
// durability substrate under the store and the raftlite replicas. In the
// simulated world "durable" means the data survives process Crash/Restart
// (unlike actor memory); records are still serialized/deserialized through
// encoding/json exactly as an on-disk implementation would, so corruption
// and replay behaviour are real.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ErrTruncated is returned when reading an index below the log's start
// (compacted away).
var ErrTruncated = errors.New("wal: index compacted away")

// Record is one durable log entry.
type Record struct {
	Index uint64 // 1-based, dense
	Data  []byte
}

// Log is an append-only record log with metadata slots and prefix
// truncation. The zero value is an empty log.
type Log struct {
	start   uint64 // index of the first retained record - 1
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
	idx := l.start + uint64(len(l.records)) + 1
	l.records = append(l.records, Record{Index: idx, Data: data})
	return idx, nil
}

// AppendRaw appends pre-serialized bytes.
func (l *Log) AppendRaw(data []byte) uint64 {
	idx := l.start + uint64(len(l.records)) + 1
	l.records = append(l.records, Record{Index: idx, Data: append([]byte(nil), data...)})
	return idx
}

// LastIndex returns the index of the newest record (0 if empty).
func (l *Log) LastIndex() uint64 { return l.start + uint64(len(l.records)) }

// FirstIndex returns the index of the oldest retained record (start+1), or
// 0 when the log holds no records.
func (l *Log) FirstIndex() uint64 {
	if len(l.records) == 0 {
		return 0
	}
	return l.start + 1
}

// Read returns the record at index, decoding into v (a pointer).
func (l *Log) Read(index uint64, v any) error {
	if index <= l.start {
		return ErrTruncated
	}
	if index > l.LastIndex() {
		return fmt.Errorf("wal: index %d beyond end %d", index, l.LastIndex())
	}
	rec := l.records[index-l.start-1]
	if err := json.Unmarshal(rec.Data, v); err != nil {
		return fmt.Errorf("wal: decode record %d: %w", index, err)
	}
	return nil
}

// Replay calls fn for every retained record in order, decoding into a
// fresh value produced by newV.
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
	if last < l.start {
		last = l.start
	}
	keep := int(last - l.start)
	if keep < len(l.records) {
		l.records = append([]Record(nil), l.records[:keep]...)
	}
}

// Compact drops the records up to and including index.
func (l *Log) Compact(index uint64) {
	if index <= l.start {
		return
	}
	if index > l.LastIndex() {
		index = l.LastIndex()
	}
	drop := int(index - l.start)
	l.records = append([]Record(nil), l.records[drop:]...)
	l.start = index
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

// Len returns the number of retained records.
func (l *Log) Len() int { return len(l.records) }
