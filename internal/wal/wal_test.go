package wal

import (
	"testing"
	"testing/quick"
)

type rec struct {
	N int    `json:"n"`
	S string `json:"s"`
}

func TestAppendRead(t *testing.T) {
	l := New()
	idx, err := l.Append(rec{N: 1, S: "a"})
	if err != nil || idx != 1 {
		t.Fatalf("append: %d %v", idx, err)
	}
	idx, _ = l.Append(rec{N: 2, S: "b"})
	if idx != 2 || l.LastIndex() != 2 {
		t.Fatalf("log shape: idx=%d last=%d", idx, l.LastIndex())
	}
	var r rec
	if err := l.Read(2, &r); err != nil || r.S != "b" {
		t.Fatalf("read: %+v %v", r, err)
	}
	if err := l.Read(3, &r); err == nil {
		t.Fatal("read beyond end succeeded")
	}
	if err := l.Read(0, &r); err == nil {
		t.Fatal("read of index 0 succeeded")
	}
}

func TestReplayOrder(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	var got []int
	err := Replay(l, func(index uint64, v rec) error {
		got = append(got, v.N)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range got {
		if n != i {
			t.Fatalf("replay order: %v", got)
		}
	}
}

func TestTruncateTail(t *testing.T) {
	l := New()
	for i := 0; i < 5; i++ {
		if _, err := l.Append(rec{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	l.TruncateTail(3)
	if l.LastIndex() != 3 {
		t.Fatalf("after truncate: last=%d", l.LastIndex())
	}
	// Appending after truncation continues from the cut.
	idx, _ := l.Append(rec{N: 9})
	if idx != 4 {
		t.Fatalf("post-truncate append index = %d", idx)
	}
	var r rec
	if err := l.Read(4, &r); err != nil || r.N != 9 {
		t.Fatalf("read after truncate: %+v %v", r, err)
	}
}

func TestMetaRoundTrip(t *testing.T) {
	l := New()
	if err := l.SetMeta("raft", rec{N: 7, S: "vote"}); err != nil {
		t.Fatal(err)
	}
	var r rec
	ok, err := l.GetMeta("raft", &r)
	if err != nil || !ok || r.N != 7 {
		t.Fatalf("meta: %+v %v %v", r, ok, err)
	}
	ok, err = l.GetMeta("missing", &r)
	if err != nil || ok {
		t.Fatalf("missing meta: %v %v", ok, err)
	}
}

func TestPropertyIndexesDense(t *testing.T) {
	f := func(ops []uint8) bool {
		l := New()
		expected := uint64(0)
		for _, op := range ops {
			switch {
			case op%4 != 0 || l.LastIndex() == 0:
				idx, _ := l.Append(op)
				expected++
				if idx != expected {
					return false
				}
			default:
				cut := uint64(op) % (l.LastIndex() + 1)
				l.TruncateTail(cut)
				if cut < expected {
					expected = cut
				}
			}
			if l.LastIndex() != expected {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
