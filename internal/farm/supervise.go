package farm

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/campaign"
)

// This file is the farm's supervision layer: the part that turns "a
// worker process died" from a campaign-aborting event into a recorded,
// retried, and — when a task is genuinely poison — quarantined one.
//
// The load-bearing property is that supervision must be invisible in the
// campaign's deterministic outputs. A retried task re-executes the same
// (target, strategy, seeds, config) through the same engine, so its
// result is byte-identical to the first attempt's would-have-been result;
// the coordinator therefore reassigns freely, and a campaign with
// injected worker crashes canonicalizes to the same artifact and NDJSON
// bytes as a failure-free run. Everything supervision observes about the
// host — which worker died, of what, how often — lands in the
// FleetReport, the journal, and the (canonicalization-scrubbed)
// Stats.Fleet counters, never in the execution set.

// Death causes, as recorded in DeathRecord.Cause.
const (
	DeathSpawn     = "spawn"     // transport failed to start
	DeathHandshake = "handshake" // no valid ready frame in time
	DeathEOF       = "eof"       // stream closed mid-session (crash, exit)
	DeathDeadline  = "deadline"  // task deadline expired (stall, livelock)
	DeathProtocol  = "protocol"  // malformed frame (torn write, corruption)
)

// DeathRecord is one worker death as the supervisor saw it: which slot
// incarnation died, what it was running, and the sanitized evidence —
// exit status, the last good protocol frame it sent, and its stderr
// tail. Evidence is for the fleet report and journal only; nothing here
// flows into campaign results (quarantine Details are built from causes
// alone, so they stay deterministic).
type DeathRecord struct {
	Worker int `json:"worker"`  // slot index
	Spawn  int `json:"spawn"`   // incarnation of the slot (0 = first)
	TaskID int `json:"task_id"` // task in flight at death; -1 if idle
	// Cause is one of the Death* constants.
	Cause string `json:"cause"`
	// Detail carries the sanitized immediate error: exit status, protocol
	// violation, handshake timeout.
	Detail string `json:"detail,omitempty"`
	// LastFrame is the sanitized last well-formed frame the worker sent.
	LastFrame string `json:"last_frame,omitempty"`
	// StderrTail is the last few KB of the worker's stderr, when the
	// transport captures it (ProcessTransport does).
	StderrTail string `json:"stderr_tail,omitempty"`
}

// QuarantineRecord marks a task declared poison: it killed Kills
// distinct worker incarnations, so rather than grind the fleet down the
// coordinator records it as a failed cell and moves on.
type QuarantineRecord struct {
	TaskID int `json:"task_id"`
	Kills  int `json:"kills"`
	// Causes lists each attributed death's cause, in death order.
	Causes []string `json:"causes"`
	// Detail is the human summary embedded in the synthetic failed cell.
	// It is built only from causes and counts — never worker identities
	// or exit text — so a quarantined cell's bytes are deterministic.
	Detail string `json:"detail"`
}

// FleetReport is the supervision layer's own outcome: everything that
// happened to the fleet while the campaign ran. It is reported beside
// campaign results (phfarm -fleet), never inside them.
type FleetReport struct {
	Workers     int           `json:"workers"`
	Deaths      []DeathRecord `json:"deaths,omitempty"`
	Respawns    int           `json:"respawns"`
	Retried     int           `json:"tasks_retried"`
	Quarantined []int         `json:"tasks_quarantined,omitempty"` // task IDs
	Resumed     int           `json:"tasks_resumed,omitempty"`     // from journal
}

// Supervisor configures RunSupervised. Factory is the only required
// field; zero values elsewhere select the defaults named in the field
// docs.
type Supervisor struct {
	// Factory builds the transport for one (slot, spawn) incarnation.
	// It is called again after every death, so fault-injecting factories
	// can arrange for respawns to come up clean.
	Factory func(slot, spawn int) Transport
	// Workers is the fleet width (default 1).
	Workers int
	// OnRecord observes streamed per-execution records. Records from
	// different workers interleave arbitrarily — per-task order is
	// guaranteed, cross-task order is not — which is why merged artifacts
	// are rebuilt from task results, never from the record stream.
	// Records from attempts that later die are indistinguishable from the
	// retry's — they are the same bytes, per task determinism — so
	// observers see at-least-once delivery and must key on (task, index)
	// if they need exactly-once.
	OnRecord func(spec TaskSpec, out campaign.PlanOutcome)
	// Deadline returns the per-task completion deadline (default
	// DefaultTaskDeadline). A task that exceeds it has its worker killed
	// and is treated exactly like a crash.
	Deadline func(spec TaskSpec) time.Duration
	// Journal, when non-nil, receives one fsynced line per completed or
	// quarantined task (plus death lines), enabling -resume.
	Journal *Journal
	// Log, when non-nil, receives one human-readable line per
	// supervision event.
	Log io.Writer

	// sleep is the test seam for backoff delays (nil = time.Sleep).
	sleep func(time.Duration)
	// taskKills is the test seam for the quarantine threshold (0 =
	// maxTaskKills).
	taskKills int
}

const (
	// maxTaskKills quarantines a task after this many distinct worker
	// deaths are attributed to it.
	maxTaskKills = 2
	// maxRespawns retires a slot after this many consecutive failed
	// incarnations — sessions that died without completing a task. A
	// completed task resets the count.
	maxRespawns = 5
	// backoffBase and backoffCap shape the capped exponential respawn
	// delay. The delay is jittered in [d/2, d).
	backoffBase = 50 * time.Millisecond
	backoffCap  = 2 * time.Second
	// handshakeTimeout bounds how long a fresh worker may take to send
	// its ready frame.
	handshakeTimeout = 30 * time.Second
)

func (s *Supervisor) workers() int {
	if s.Workers < 1 {
		return 1
	}
	return s.Workers
}

func (s *Supervisor) killLimit() int {
	if s.taskKills < 1 {
		return maxTaskKills
	}
	return s.taskKills
}

// backoff is the respawn delay after fails consecutive failed
// incarnations.
func backoff(fails int) time.Duration {
	d := backoffBase
	for i := 1; i < fails && d < backoffCap; i++ {
		d *= 2
	}
	if d > backoffCap {
		d = backoffCap
	}
	// Jitter into [d/2, d): respawning workers after a correlated crash
	// (say, the machine paged) shouldn't stampede back in lockstep.
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func (s *Supervisor) deadline(spec TaskSpec) time.Duration {
	if s.Deadline != nil {
		return s.Deadline(spec)
	}
	return DefaultTaskDeadline(spec)
}

func (s *Supervisor) doSleep(d time.Duration) {
	if s.sleep != nil {
		s.sleep(d)
		return
	}
	time.Sleep(d)
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.Log != nil {
		fmt.Fprintf(s.Log, format+"\n", args...)
	}
}

// DefaultTaskDeadline scales a generous per-seed allowance by the task's
// event budget: the watchdog budget bounds a single execution's kernel
// work, so a task whose config multiplies it gets proportionally more
// wall clock before the supervisor declares its worker stalled.
func DefaultTaskDeadline(spec TaskSpec) time.Duration {
	const perSeed = 2 * time.Minute
	seeds := len(spec.Seeds)
	if seeds < 1 {
		seeds = 1
	}
	scale := 1.0
	if spec.EventBudget > campaign.DefaultEventBudget {
		scale = float64(spec.EventBudget) / float64(campaign.DefaultEventBudget)
	}
	return time.Duration(float64(perSeed) * float64(seeds) * scale)
}

// fleetState is the shared scheduler: a sorted pending queue plus the
// completion ledger, guarded by one mutex. Slots block in next() when
// the queue is empty but tasks are still in flight elsewhere — a death
// requeues its task and wakes them.
type fleetState struct {
	sup   *Supervisor
	tasks []TaskSpec

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []int // pending task IDs, ascending
	pending   int   // tasks not yet completed or quarantined
	cancelled bool
	results   []TaskResult
	report    FleetReport
}

func newFleetState(sup *Supervisor, tasks []TaskSpec) *fleetState {
	f := &fleetState{sup: sup, tasks: tasks, results: make([]TaskResult, len(tasks))}
	f.cond = sync.NewCond(&f.mu)
	for i, spec := range tasks {
		f.results[i] = TaskResult{Spec: spec}
	}
	return f
}

// next blocks until a task is available, every task is settled, or the
// run is cancelled. ok=false means the slot should shut its worker down
// cleanly and exit.
func (f *fleetState) next() (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for len(f.queue) == 0 && f.pending > 0 && !f.cancelled {
		f.cond.Wait()
	}
	if f.cancelled || len(f.queue) == 0 {
		return 0, false
	}
	id := f.queue[0]
	f.queue = f.queue[1:]
	return id, true
}

func (f *fleetState) push(id int) {
	// Ascending insert keeps retry dispatch order stable: determinism of
	// the merged output never depends on it (results are slotted by ID),
	// but stable scheduling makes fleet logs and tests reproducible.
	i := 0
	for i < len(f.queue) && f.queue[i] < id {
		i++
	}
	f.queue = append(f.queue, 0)
	copy(f.queue[i+1:], f.queue[i:])
	f.queue[i] = id
}

func (f *fleetState) cancel() {
	f.mu.Lock()
	f.cancelled = true
	f.mu.Unlock()
	f.cond.Broadcast()
}

// complete settles a task with a worker-reported result or deterministic
// task error, journals it, and wakes waiters.
func (f *fleetState) complete(id int, res *campaign.Result, errStr string) {
	f.mu.Lock()
	f.results[id].Res = res
	f.results[id].Err = errStr
	f.pending--
	j := f.sup.Journal
	f.mu.Unlock()
	if j != nil {
		_ = j.Result(id, res, errStr)
	}
	f.cond.Broadcast()
}

// died records a worker death; when the dead worker held a task, the
// task is either requeued (retry) or — at maxTaskKills distinct deaths —
// quarantined as a synthetic failed cell.
func (f *fleetState) died(d DeathRecord) {
	f.sup.logf("farm: worker %d spawn %d died (%s): task=%d %s", d.Worker, d.Spawn, d.Cause, d.TaskID, d.Detail)
	var q *QuarantineRecord
	f.mu.Lock()
	f.report.Deaths = append(f.report.Deaths, d)
	if d.TaskID >= 0 {
		tr := &f.results[d.TaskID]
		tr.Deaths = append(tr.Deaths, d)
		if len(tr.Deaths) >= f.sup.killLimit() {
			causes := make([]string, len(tr.Deaths))
			for i, dd := range tr.Deaths {
				causes[i] = dd.Cause
			}
			q = &QuarantineRecord{
				TaskID: d.TaskID,
				Kills:  len(tr.Deaths),
				Causes: causes,
				Detail: fmt.Sprintf("task killed %d workers (%s); quarantined", len(tr.Deaths), joinCauses(causes)),
			}
			tr.Quarantine = q
			f.report.Quarantined = append(f.report.Quarantined, d.TaskID)
			f.pending--
		} else {
			tr.Retries++
			f.report.Retried++
			f.push(d.TaskID)
		}
	}
	j := f.sup.Journal
	f.mu.Unlock()
	if j != nil {
		_ = j.Death(d)
		if q != nil {
			_ = j.Quarantine(q)
		}
	}
	if q != nil {
		f.sup.logf("farm: task %d quarantined after %d kills", q.TaskID, q.Kills)
	}
	f.cond.Broadcast()
}

func joinCauses(causes []string) string {
	out := ""
	for i, c := range causes {
		if i > 0 {
			out += ", "
		}
		out += c
	}
	return out
}

// done reports whether every task is settled or the run is cancelled.
func (f *fleetState) done() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.pending == 0 || f.cancelled
}

// TaskResult is one task's outcome as the coordinator saw it: the
// worker's full campaign.Result, or the error that stopped it. Res is
// nil for tasks that never completed (cancellation, quarantine). Deaths
// lists every worker death attributed to the task, Retries counts
// requeues after such deaths, and Quarantine is non-nil when the task
// killed enough distinct workers to be declared poison — in which case
// Res stays nil and the merge records a synthetic failed cell instead of
// aborting the campaign.
type TaskResult struct {
	Spec TaskSpec
	Res  *campaign.Result
	Err  string

	Deaths     []DeathRecord
	Retries    int
	Quarantine *QuarantineRecord
}

// RunSupervised executes tasks across a self-healing fleet of workers
// and returns one TaskResult per task (in task order), the fleet report,
// and whether ctx cancellation interrupted the run.
//
// resumed, when non-nil, seeds already-settled task results from a
// coordinator journal: those tasks are not dispatched again, and their
// results flow into the output untouched — the resumed run's merged
// artifact is byte-identical to an uninterrupted one because each
// journal line holds the task's full deterministic result.
//
// Dispatch is pull-based — each worker serves one task at a time and
// takes the next free one when it reports a result, so slow shards never
// stall the fleet behind a static assignment — and worker death never
// aborts the run: dead workers respawn with capped, jittered exponential
// backoff, their in-flight tasks retry on healthy workers, and a task
// that keeps killing workers is quarantined (Res nil, Quarantine set).
// The run fails outright only when the fleet is exhausted: every slot
// retired (maxRespawns consecutive spawn failures) with tasks still
// pending.
func RunSupervised(ctx context.Context, sup *Supervisor, tasks []TaskSpec, resumed map[int]ResumedTask) ([]TaskResult, FleetReport, bool, error) {
	for i, spec := range tasks {
		if spec.ID != i {
			return nil, FleetReport{}, false, fmt.Errorf("farm: task %d has ID %d; IDs must be dense and ordered", i, spec.ID)
		}
	}
	f := newFleetState(sup, tasks)
	f.report.Workers = sup.workers()
	for i := range tasks {
		if pre, ok := resumed[i]; ok {
			f.results[i].Res = pre.Res
			f.results[i].Err = pre.Err
			f.results[i].Quarantine = pre.Quarantine
			f.report.Resumed++
			continue
		}
		f.push(i)
		f.pending++
	}
	if f.pending == 0 {
		return f.results, f.report, false, nil
	}

	// The cancel watcher converts ctx death into a broadcast that frees
	// slots blocked in next(); stop() fires it on normal return too so
	// the goroutine never outlives the run.
	kctx, stop := context.WithCancel(ctx)
	defer stop()
	go func() {
		<-kctx.Done()
		if ctx.Err() != nil {
			f.cancel()
		}
	}()

	var wg sync.WaitGroup
	for slot := 0; slot < sup.workers(); slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			f.runSlot(ctx, slot)
		}(slot)
	}
	wg.Wait()

	interrupted := ctx.Err() != nil
	if !interrupted && f.pending > 0 {
		return f.results, f.report, false, fmt.Errorf(
			"farm: fleet exhausted: %d tasks incomplete after %d worker deaths",
			f.pending, len(f.report.Deaths))
	}
	return f.results, f.report, interrupted, nil
}

// runSlot is one slot's supervision loop: spawn, serve a session, and on
// death back off and respawn — until the queue drains, the run is
// cancelled, or the slot burns maxRespawns consecutive incarnations
// without completing anything (at which point it retires and leaves the
// remaining work to healthier slots).
func (f *fleetState) runSlot(ctx context.Context, slot int) {
	fails := 0
	for spawn := 0; ; spawn++ {
		if f.done() || ctx.Err() != nil {
			return
		}
		if spawn > 0 {
			f.mu.Lock()
			f.report.Respawns++
			f.mu.Unlock()
			f.sup.doSleep(backoff(fails))
			if f.done() || ctx.Err() != nil {
				return
			}
		}
		completed, clean := f.session(ctx, slot, spawn)
		if clean {
			return
		}
		if completed > 0 {
			fails = 0
		}
		fails++
		if fails > maxRespawns {
			f.sup.logf("farm: worker slot %d retired after %d consecutive failures", slot, fails-1)
			return
		}
	}
}

// frameEvent is one reader-goroutine observation: a decoded frame (with
// its sanitized raw line) or the error that ended the stream.
type frameEvent struct {
	msg wireMsg
	raw string
	err error
}

// session runs one worker incarnation end to end. It returns the number
// of tasks the incarnation completed and whether it ended cleanly
// (queue drained or run cancelled — no death to record).
func (f *fleetState) session(ctx context.Context, slot, spawn int) (completed int, clean bool) {
	sup := f.sup
	tr := sup.Factory(slot, spawn)
	peer := fmt.Sprintf("worker %d spawn %d", slot, spawn)
	death := DeathRecord{Worker: slot, Spawn: spawn, TaskID: -1}

	in, out, err := tr.Start()
	if err != nil {
		death.Cause = DeathSpawn
		death.Detail = err.Error()
		f.died(death)
		return 0, false
	}
	// The reader goroutine owns the scanner; the session owns everything
	// else. done gates its channel sends so it can never block forever
	// after the session ends, and draining happens via transport Kill
	// (closing the stream) followed by the goroutine observing the error.
	events := make(chan frameEvent)
	done := make(chan struct{})
	defer close(done)
	go func() {
		fs := newFrameScanner(out, peer)
		for {
			msg, raw, err := fs.next()
			select {
			case events <- frameEvent{msg: msg, raw: raw, err: err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	// finish tears the incarnation down. Kill before Wait even on the
	// clean path: the protocol shutdown already went out, so any process
	// still alive is one that ignored it.
	finish := func(kill bool) {
		if kill {
			tr.Kill()
		}
		waitErr := tr.Wait()
		if waitErr != nil && death.Detail == "" {
			death.Detail = sanitizeEvidence(waitErr.Error())
		}
		if st, ok := tr.(stderrTailer); ok {
			if tail := st.StderrTail(); tail != "" {
				death.StderrTail = sanitizeEvidence(tail)
			}
		}
	}

	// Handshake: the worker must announce ready with the right protocol
	// magic before it gets a task.
	hs := time.NewTimer(handshakeTimeout)
	select {
	case ev := <-events:
		hs.Stop()
		if ev.err != nil || ev.msg.Type != msgReady || ev.msg.Proto != ProtocolVersion {
			death.Cause = DeathHandshake
			switch {
			case ev.err != nil:
				death.Cause = deathCauseOf(ev.err)
				death.Detail = sanitizeEvidence(ev.err.Error())
			case ev.msg.Proto != ProtocolVersion:
				death.Detail = fmt.Sprintf("protocol version %q, want %q", ev.msg.Proto, ProtocolVersion)
			default:
				death.Detail = fmt.Sprintf("first frame %q, want ready", ev.msg.Type)
			}
			finish(true)
			f.died(death)
			return 0, false
		}
	case <-hs.C:
		death.Cause = DeathHandshake
		death.Detail = "no ready frame before handshake timeout"
		finish(true)
		f.died(death)
		return 0, false
	case <-ctx.Done():
		hs.Stop()
		finish(true)
		return 0, true
	}

	enc := json.NewEncoder(in)
	lastGood := ""
	for {
		id, ok := f.next()
		if !ok {
			// Queue drained or cancelled: polite shutdown, then reap.
			_ = enc.Encode(wireMsg{Type: msgShutdown})
			in.Close()
			finish(true)
			return completed, true
		}
		spec := f.tasks[id]
		death.TaskID = id
		if err := enc.Encode(wireMsg{Type: msgTask, Task: &spec}); err != nil {
			death.Cause = DeathEOF
			death.Detail = sanitizeEvidence(err.Error())
			death.LastFrame = lastGood
			finish(true)
			f.died(death)
			return completed, false
		}
		deadline := time.NewTimer(sup.deadline(spec))
		taskDone := false
		for !taskDone {
			select {
			case ev := <-events:
				if ev.err != nil {
					deadline.Stop()
					death.Cause = deathCauseOf(ev.err)
					death.Detail = sanitizeEvidence(ev.err.Error())
					death.LastFrame = lastGood
					finish(true)
					f.died(death)
					return completed, false
				}
				lastGood = ev.raw
				switch ev.msg.Type {
				case msgRecord:
					if sup.OnRecord != nil && ev.msg.Record != nil {
						sup.OnRecord(spec, *ev.msg.Record)
					}
				case msgResult:
					f.complete(id, ev.msg.Result, "")
					completed++
					taskDone = true
				case msgError:
					// A worker-reported task error is deterministic (the
					// task itself failed, reproducibly) — settled, not
					// retried: retrying would fail identically.
					f.complete(id, nil, ev.msg.Error)
					completed++
					taskDone = true
				default:
					deadline.Stop()
					death.Cause = DeathProtocol
					death.Detail = fmt.Sprintf("unexpected frame type %q", ev.msg.Type)
					death.LastFrame = ev.raw
					finish(true)
					f.died(death)
					return completed, false
				}
			case <-deadline.C:
				death.Cause = DeathDeadline
				death.Detail = fmt.Sprintf("task exceeded %s deadline", sup.deadline(spec))
				death.LastFrame = lastGood
				finish(true)
				f.died(death)
				return completed, false
			case <-ctx.Done():
				deadline.Stop()
				finish(true)
				return completed, true
			}
		}
		deadline.Stop()
		death.TaskID = -1
	}
}

// deathCauseOf classifies a stream-ending error.
func deathCauseOf(err error) string {
	var pe *ProtocolError
	if errors.As(err, &pe) {
		return DeathProtocol
	}
	return DeathEOF
}

// QuarantineResult synthesizes the failed cell a quarantined task merges
// as: zero executions, one "quarantine" execution-failure record, and
// fleet counters noting the quarantine. Everything in it is a
// deterministic function of (spec, causes) — worker identities and exit
// text stay in the fleet report — so merged artifacts containing
// quarantined cells are stable across reruns and worker counts.
func QuarantineResult(spec TaskSpec, q *QuarantineRecord) campaign.Result {
	seeds := spec.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	res := campaign.Result{
		Target:   spec.Target,
		Strategy: spec.Strategy,
	}
	for _, seed := range seeds {
		res.Seeds = append(res.Seeds, campaign.SeedResult{Seed: seed})
	}
	res.Campaign, res.DetectedSeed = campaign.PrimaryCampaign(res.Seeds)
	res.Failures = append(res.Failures, campaign.ExecutionFailure{
		Seed:   seeds[0],
		Index:  -1,
		Kind:   "quarantine",
		Detail: q.Detail,
	})
	res.Stats = campaign.Stats{
		Seeds: len(seeds),
		Fleet: &campaign.FleetStats{TasksQuarantined: 1},
	}
	return res
}
