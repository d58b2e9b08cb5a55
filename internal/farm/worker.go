package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/campaign"
)

// WorkerLoop is the worker side of the farm protocol: announce ready
// (with the protocol version magic), then serve tasks from r until a
// shutdown message or EOF. Each task runs through the unchanged
// campaign.Engine; per-execution records stream to w as they enter the
// deterministic execution set, followed by one result (or error)
// message. All writes happen on the calling goroutine — the engine's
// OnOutcome hook fires from its aggregation loop, which RunTask executes
// synchronously — so the stream needs no locking and stays strictly
// ordered.
//
// Malformed coordinator frames surface as *ProtocolError (the offending
// line included) rather than a decode panic or a silently skipped
// message: a worker that cannot trust its instruction stream must die
// loudly, because the supervision layer treats its death as evidence.
func WorkerLoop(r io.Reader, w io.Writer) error {
	enc := json.NewEncoder(w)
	fs := newFrameScanner(r, "coordinator")
	if err := enc.Encode(wireMsg{Type: msgReady, Proto: ProtocolVersion}); err != nil {
		return fmt.Errorf("farm: worker hello: %w", err)
	}
	for {
		msg, _, err := fs.next()
		if err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) {
				return nil // coordinator hung up; clean exit
			}
			var pe *ProtocolError
			if errors.As(err, &pe) {
				return pe
			}
			return fmt.Errorf("farm: worker read: %w", err)
		}
		switch msg.Type {
		case msgShutdown:
			return nil
		case msgTask:
			if msg.Task == nil {
				return &ProtocolError{Peer: "coordinator", Line: "(task frame)", Err: errors.New("task message without task")}
			}
			spec := *msg.Task
			var streamErr error
			res, err := RunTask(spec, func(out campaign.PlanOutcome) {
				if streamErr == nil {
					streamErr = enc.Encode(wireMsg{Type: msgRecord, TaskID: spec.ID, Record: &out})
				}
			})
			if streamErr != nil {
				return fmt.Errorf("farm: worker stream: %w", streamErr)
			}
			reply := wireMsg{Type: msgResult, TaskID: spec.ID, Result: &res}
			if err != nil {
				reply = wireMsg{Type: msgError, TaskID: spec.ID, Error: err.Error()}
			}
			if err := enc.Encode(reply); err != nil {
				return fmt.Errorf("farm: worker reply: %w", err)
			}
		default:
			return &ProtocolError{Peer: "coordinator", Line: sanitizeEvidence(msg.Type), Err: fmt.Errorf("unknown message type %q", msg.Type)}
		}
	}
}

// RunTask resolves one task's cell and executes its campaign. onOutcome
// (optional) observes every per-execution record in aggregation order.
func RunTask(spec TaskSpec, onOutcome func(campaign.PlanOutcome)) (campaign.Result, error) {
	t, err := ResolveTarget(spec.Target, spec.Fixed)
	if err != nil {
		return campaign.Result{}, err
	}
	s, err := ResolveStrategy(spec.Strategy, spec.RandomSeed, spec.RandomN)
	if err != nil {
		return campaign.Result{}, err
	}
	cfg := spec.Config()
	cfg.OnOutcome = onOutcome
	return campaign.New(cfg).Run(t, s), nil
}
