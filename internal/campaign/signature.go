package campaign

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/core"
	"repro/internal/learn"
	"repro/internal/oracle"
	"repro/internal/trace"
)

// Signature is the compact coverage fingerprint of one execution: the
// sorted set of oracle violations folded with the trace-derived state hash
// (per-component delivered-event sequences plus the committed history —
// see trace.StateHash). Two executions with equal signatures exercised the
// system identically for bug-finding purposes.
type Signature uint64

// String renders the signature as fixed-width hex (the JSON artifact form).
func (s Signature) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// signatureOf folds an execution's violations and its recorded trace into
// one signature. Violation oracle names are sorted so the signature does
// not depend on detection order.
func signatureOf(tr *trace.Trace, violations []oracle.Violation) Signature {
	h := fnv.New64a()
	names := make([]string, 0, len(violations))
	for _, v := range violations {
		names = append(names, v.Oracle)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], tr.StateHash())
	h.Write(buf[:])
	return Signature(h.Sum64())
}

// signatureOrZero is the coverage signature of an instrumented execution;
// uninstrumented, failed and hung executions (nil trace) report 0.
func signatureOrZero(tr *trace.Trace, exec core.Execution) Signature {
	if tr == nil {
		return 0
	}
	return signatureOf(tr, exec.Violations)
}

// classOf predicts the signature class of a plan before running it. The
// classifier lives in internal/learn (learn.ClassOf) so the guided
// scheduler's coverage classes and the learning phase's bucket-affinity
// keys are the same vocabulary; this alias keeps campaign-internal call
// sites short.
func classOf(p core.Plan) string { return learn.ClassOf(p) }
