// Package farm is the campaign fleet: a coordinator/worker subsystem
// that shards the (target × seed × plan-class) space of a campaign
// matrix across worker processes and merges the shards back into
// results that are byte-identical to a single-process run.
//
// The pieces:
//
//   - protocol.go  the task unit (TaskSpec), the NDJSON wire messages,
//     the version handshake, and typed ProtocolError framing
//   - transport.go how a worker is launched and spoken to (subprocess
//     over stdin/stdout pipes, or an in-process goroutine for tests —
//     a TCP transport slots in behind the same interface)
//   - worker.go    the worker side: run one task through the unchanged
//     campaign.Engine, streaming per-execution records
//   - shard.go     how a campaign matrix becomes tasks (seed-sharded,
//     except when cross-seed learning forbids it), and how task results
//     fold back into cells through campaign.Merge
//   - supervise.go the coordinator: pull-based task dispatch,
//     cancellation with partial results, and worker supervision — death
//     detection (EOF, deadline, protocol), capped-backoff respawn,
//     deterministic task retry, and poison-task quarantine
//   - journal.go   the crash-resumable coordinator journal: one fsynced
//     NDJSON line per completed task, torn-tail-tolerant resume
//   - faulttransport.go deterministic fault injection for testing: kill,
//     stall, or tear a worker stream at scripted frames
//   - resolve.go   target/strategy/seed name resolution shared with the
//     single-process CLI
//   - cli.go       the flags, outputs and matrix printer phtest and
//     phfarm share
//   - grid.go      declarative experiment grids (targets × seeds ×
//     plan-family toggles × repeats)
//   - analyze.go   grid summary tables and CSV
//
// Everything the merge relies on — execution sets, bucket contents,
// telemetry — is deterministic in the engine by construction; the farm
// adds no nondeterminism of its own because shard boundaries follow the
// engine's own independence structure (seeds are independent unless the
// learning phase couples them through cross-seed bucket affinity).
package farm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"repro/internal/campaign"
)

// TaskSpec is one unit of farmed work: a full campaign.Config worth of
// knobs plus the cell coordinates, flattened to plain serializable
// fields (campaign.Config itself carries a function hook and is not a
// wire type). A task runs one (target, strategy) campaign over Seeds —
// a single seed for seed-sharded cells, the whole sweep for cells the
// learning phase couples across seeds.
type TaskSpec struct {
	// ID is the task's dense index in the coordinator's plan (0-based);
	// workers echo it on every record and result.
	ID int `json:"id"`

	// Cell coordinates.
	Target   string `json:"target"`
	Strategy string `json:"strategy"`
	// Fixed selects the fixed component variants of the target (the
	// no-detection correctness baseline).
	Fixed bool `json:"fixed,omitempty"`
	// RandomSeed / RandomN parameterize the random baseline strategy's
	// plan generator; ignored by the other strategies.
	RandomSeed int64 `json:"random_seed,omitempty"`
	RandomN    int   `json:"random_n,omitempty"`

	// Engine knobs, mirroring campaign.Config. Parallel is the
	// in-process pool width per worker (campaign.Config.Workers) — it
	// must match the single-process -parallel value for guided schedules
	// to be comparable, because guided scheduling is deterministic per
	// pool width.
	Seeds         []int64 `json:"seeds"`
	MaxExecutions int     `json:"max_executions,omitempty"`
	Parallel      int     `json:"parallel,omitempty"`
	Guided        bool    `json:"guided,omitempty"`
	KeepGoing     bool    `json:"keep_going,omitempty"`
	Explain       bool    `json:"explain,omitempty"`
	Prune         bool    `json:"prune,omitempty"`
	Ranked        bool    `json:"ranked,omitempty"`
	Snapshot      bool    `json:"snapshot,omitempty"`
	EventBudget   uint64  `json:"event_budget,omitempty"`

	// Coverage carries the cell's slice of the persistent corpus, when
	// the coordinator runs with one.
	Coverage *campaign.CoverageSeed `json:"coverage,omitempty"`
}

// Config is the one mapping from a cell to the campaign.Config it runs
// under: the worker runs a task with it, and phtest runs each cell with it,
// so a farmed cell and a single-process one cannot configure the engine
// differently. Collect is on because the coordinator needs per-plan
// outcomes to merge artifacts and regenerate telemetry streams; phtest
// turns it off when no output asks for them, since instrumentation costs.
func (s TaskSpec) Config() campaign.Config {
	return campaign.Config{
		Workers:       s.Parallel,
		Seeds:         s.Seeds,
		MaxExecutions: s.MaxExecutions,
		Guided:        s.Guided,
		Collect:       true,
		KeepGoing:     s.KeepGoing,
		Explain:       s.Explain,
		EventBudget:   s.EventBudget,
		Prune:         s.Prune,
		Ranked:        s.Ranked,
		Snapshot:      s.Snapshot,
		Coverage:      s.Coverage,
	}
}

// Validate rejects a cell whose switches parse fine but make no sense
// together: -ranked without -prune would run the learning phase in a mode
// no report distinguishes from plain ordering, and -snapshot with -fixed
// would fork the fixed-variant baselines whose entire point is exercising
// the unmodified full-replay path. phtest, phfarm and every grid toggle
// validate through it, so a cell is rejected identically everywhere.
func (s TaskSpec) Validate() error {
	if s.Ranked && !s.Prune {
		return fmt.Errorf("-ranked requires -prune: impact ranking orders the learning phase's kept set, which only exists when pruning runs")
	}
	if s.Snapshot && s.Fixed {
		return fmt.Errorf("-snapshot is incompatible with -fixed: fixed-variant runs are correctness baselines and must execute full replays")
	}
	return nil
}

// Wire message types, coordinator → worker and back. The protocol is
// NDJSON in both directions: one JSON object per line, strictly ordered
// per pipe.
const (
	// coordinator → worker
	msgTask     = "task"     // carries Task; run it
	msgShutdown = "shutdown" // drain and exit cleanly

	// worker → coordinator
	msgReady  = "ready"  // worker is up and idle; carries Proto
	msgRecord = "record" // one per-execution record, streamed mid-task
	msgResult = "result" // the task's full campaign.Result
	msgError  = "error"  // the task failed; Error explains
)

// ProtocolVersion is the magic the worker's ready handshake must carry.
// The coordinator rejects a worker announcing any other version before
// handing it a task, so a stale binary (or a non-worker process wired
// into a transport by mistake) dies at the handshake instead of
// half-speaking the protocol mid-campaign.
const ProtocolVersion = "phfarm/1"

// wireMsg is the single envelope both directions use; Type selects
// which payload fields are meaningful.
type wireMsg struct {
	Type string `json:"type"`
	// Proto is the protocol version announced on msgReady.
	Proto  string                `json:"proto,omitempty"`
	Task   *TaskSpec             `json:"task,omitempty"`
	TaskID int                   `json:"task_id,omitempty"`
	Record *campaign.PlanOutcome `json:"record,omitempty"`
	Result *campaign.Result      `json:"result,omitempty"`
	Error  string                `json:"error,omitempty"`
}

// ProtocolError is a typed wire-protocol violation: a frame that is not
// valid JSON (torn tails included — a worker killed mid-write leaves a
// partial line), or a structurally invalid message. It identifies the
// peer and carries the offending line, sanitized, so a supervision death
// record or a worker's stderr names the exact bytes that broke the
// session instead of panicking or silently skipping the frame.
type ProtocolError struct {
	// Peer identifies who sent the bad frame ("worker 2 spawn 1",
	// "coordinator").
	Peer string
	// Line is the offending frame, sanitized and truncated.
	Line string
	// Err is the underlying decode error.
	Err error
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("farm: protocol violation from %s: %v (frame: %q)", e.Peer, e.Err, e.Line)
}

func (e *ProtocolError) Unwrap() error { return e.Err }

// maxFrameBytes bounds one NDJSON frame. Task results for large campaigns
// carry every collected outcome, so the ceiling is generous; a frame that
// exceeds it is a protocol violation, not an allocation request.
const maxFrameBytes = 256 << 20

// evidenceLimit bounds the sanitized copies of wire frames kept as death
// evidence.
const evidenceLimit = 240

// sanitizeEvidence makes a wire frame or process output safe to embed in
// reports: control characters escaped, length capped.
func sanitizeEvidence(s string) string {
	if len(s) > evidenceLimit {
		s = s[:evidenceLimit] + "..."
	}
	return strconv.Quote(s)
}

// frameScanner reads one protocol frame (one NDJSON line) at a time.
// Malformed and truncated frames come back as *ProtocolError carrying the
// peer identity and the offending line; a cleanly closed stream returns
// io.EOF. It replaces the json.Decoder the protocol used to ride on,
// whose error for a torn frame ("unexpected EOF") was indistinguishable
// from transport loss and whose recovery behavior on garbage input was
// undefined.
type frameScanner struct {
	sc   *bufio.Scanner
	peer string
}

func newFrameScanner(r io.Reader, peer string) *frameScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), maxFrameBytes)
	return &frameScanner{sc: sc, peer: peer}
}

// next returns the next frame. The raw (sanitized) line is returned
// alongside the decoded message so callers can keep last-frame evidence
// without re-marshaling.
func (f *frameScanner) next() (wireMsg, string, error) {
	for {
		if !f.sc.Scan() {
			if err := f.sc.Err(); err != nil {
				if errors.Is(err, bufio.ErrTooLong) {
					return wireMsg{}, "", &ProtocolError{Peer: f.peer, Line: "(oversized frame)", Err: err}
				}
				return wireMsg{}, "", err
			}
			return wireMsg{}, "", io.EOF
		}
		line := f.sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue // blank lines are inter-frame noise, not frames
		}
		raw := sanitizeEvidence(string(line))
		var msg wireMsg
		if err := json.Unmarshal(line, &msg); err != nil {
			return wireMsg{}, raw, &ProtocolError{Peer: f.peer, Line: raw, Err: err}
		}
		if msg.Type == "" {
			return wireMsg{}, raw, &ProtocolError{Peer: f.peer, Line: raw, Err: errors.New("frame has no type")}
		}
		return msg, raw, nil
	}
}
