package store

// Transactions: etcd-style guarded atomic batches. A Txn compares a set of
// guards against the current state; if all hold, the ops commit atomically
// (consecutive revisions, single watcher batch per op); otherwise nothing
// does. This is the primitive behind optimistic concurrency on
// ResourceVersion ("compare-and-swap on mod revision") that HBASE-3136's
// region transitions — and every Kubernetes update — rely on.

// CmpTarget selects which MVCC attribute a guard compares.
type CmpTarget int

const (
	// CmpModRevision compares the key's ModRevision.
	CmpModRevision CmpTarget = iota
	// CmpExists asserts the key exists (IntVal != 0) or not (IntVal == 0).
	CmpExists
)

// Cmp is a transaction guard on one key.
type Cmp struct {
	Key    string
	Target CmpTarget
	IntVal int64
}

// OpType is the kind of a transaction operation.
type OpType int

const (
	// OpPut writes a key.
	OpPut OpType = iota
	// OpDelete removes a key.
	OpDelete
)

// Op is one mutation inside a transaction branch.
type Op struct {
	Type  OpType
	Key   string
	Value []byte
}

// TxnResult reports the outcome of a transaction.
type TxnResult struct {
	Succeeded bool  // whether the success branch ran
	Revision  int64 // store revision after the txn
}

// Check evaluates a single guard against the current state.
func (s *Store) Check(c Cmp) bool {
	kv, ok := s.kvs[c.Key]
	switch c.Target {
	case CmpExists:
		return ok == (c.IntVal != 0)
	case CmpModRevision:
		if !ok {
			return c.IntVal == 0
		}
		return kv.ModRevision == c.IntVal
	default:
		return false
	}
}

// Txn atomically evaluates guards and, if all hold, applies ops. A failing
// guard returns ErrTxnFailed. The caller hands the ops' values over, as
// Conn.Update hands its object over: a committed put keeps its Value as the
// committed bytes, uncopied, so nobody writes to a value once it is in a
// Txn. The apiserver's write is the one buffer Encode made.
func (s *Store) Txn(guards []Cmp, ops []Op) (TxnResult, error) {
	for _, c := range guards {
		if !s.Check(c) {
			return TxnResult{Succeeded: false, Revision: s.rev}, ErrTxnFailed
		}
	}
	for _, op := range ops {
		switch op.Type {
		case OpPut:
			s.put(op.Key, op.Value)
		case OpDelete:
			// Deleting an absent key inside a txn is a no-op, matching
			// etcd's DeleteRange semantics.
			_, _ = s.Delete(op.Key)
		}
	}
	return TxnResult{Succeeded: true, Revision: s.rev}, nil
}

// CompareAndSwap is the common special case: write key=value only if the
// key's ModRevision equals expectRev (0 = must not exist). It reports
// whether the swap happened. Like Txn, it takes value over.
func (s *Store) CompareAndSwap(key string, expectRev int64, value []byte) (bool, int64) {
	res, err := s.Txn(
		[]Cmp{{Key: key, Target: CmpModRevision, IntVal: expectRev}},
		[]Op{{Type: OpPut, Key: key, Value: value}},
	)
	if err != nil {
		return false, s.rev
	}
	return res.Succeeded, res.Revision
}
