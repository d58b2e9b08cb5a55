package farm

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestFrameScanner(t *testing.T) {
	input := "\n" + // blank: skipped
		`{"type":"ready","proto":"phfarm/1"}` + "\n" +
		"   \n" + // whitespace-only: skipped
		"this is not json\n" +
		`{"task_id":3}` + "\n" + // valid JSON, no type
		`{"type":"result","task` // torn tail, no newline
	fs := newFrameScanner(strings.NewReader(input), "test-peer")

	msg, raw, err := fs.next()
	if err != nil || msg.Type != msgReady || msg.Proto != ProtocolVersion {
		t.Fatalf("first frame: msg=%+v raw=%s err=%v", msg, raw, err)
	}

	_, _, err = fs.next()
	var pe *ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("garbage line: err=%v, want *ProtocolError", err)
	}
	if pe.Peer != "test-peer" || !strings.Contains(pe.Line, "not json") {
		t.Errorf("protocol error evidence: peer=%q line=%q", pe.Peer, pe.Line)
	}
	if !strings.Contains(pe.Error(), "test-peer") {
		t.Errorf("Error() omits peer: %s", pe.Error())
	}

	_, _, err = fs.next()
	if !errors.As(err, &pe) || !strings.Contains(pe.Err.Error(), "no type") {
		t.Errorf("typeless frame: err=%v, want no-type ProtocolError", err)
	}

	// The torn tail is still a line to bufio.Scanner (EOF flushes it), so
	// it surfaces as a decode ProtocolError — exactly what a coordinator
	// must see when a worker dies mid-write.
	_, _, err = fs.next()
	if !errors.As(err, &pe) {
		t.Errorf("torn tail: err=%v, want *ProtocolError", err)
	}

	if _, _, err = fs.next(); err != io.EOF {
		t.Errorf("exhausted scanner: err=%v, want io.EOF", err)
	}
}

func TestSanitizeEvidence(t *testing.T) {
	long := strings.Repeat("x", evidenceLimit+50)
	got := sanitizeEvidence(long)
	if len(got) > evidenceLimit+20 || !strings.HasSuffix(got, `..."`) {
		t.Errorf("oversized evidence not truncated: len=%d tail=%q", len(got), got[len(got)-8:])
	}
	if got := sanitizeEvidence("a\x00b\nc"); got != `"a\x00b\nc"` {
		t.Errorf("control chars not escaped: %s", got)
	}
}

// TestWorkerLoopProtocolError: garbage on the worker's stdin must come
// back as a typed *ProtocolError, not a panic or a silent skip.
func TestWorkerLoopProtocolError(t *testing.T) {
	for _, input := range []string{
		"certainly not a frame\n",
		`{"type":"no-such-message"}` + "\n",
	} {
		var out bytes.Buffer
		err := WorkerLoop(strings.NewReader(input), &out)
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Errorf("WorkerLoop(%q) = %v, want *ProtocolError", input, err)
		}
		// The handshake must still have been sent before the bad frame.
		if !strings.Contains(out.String(), ProtocolVersion) {
			t.Errorf("worker never announced %s:\n%s", ProtocolVersion, out.String())
		}
	}
}

// TestWorkerLoopCleanEOF: a coordinator hanging up without a shutdown
// frame is a clean exit for the worker, not an error.
func TestWorkerLoopCleanEOF(t *testing.T) {
	var out bytes.Buffer
	if err := WorkerLoop(strings.NewReader(""), &out); err != nil {
		t.Errorf("WorkerLoop on EOF = %v, want nil", err)
	}
	if err := WorkerLoop(strings.NewReader(`{"type":"shutdown"}`+"\n"), &out); err != nil {
		t.Errorf("WorkerLoop on shutdown = %v, want nil", err)
	}
}

// assertHandshakeRejected runs one task against a worker announcing the
// given protocol version: it must be put down at the handshake, and with
// respawns exhausted the fleet must report handshake deaths and an
// exhaustion error instead of feeding tasks to a peer that half-speaks
// the protocol.
func assertHandshakeRejected(t *testing.T, version string) {
	t.Helper()
	tasks := Plan([]string{"cass-op-400"}, []string{"partial-history"},
		TaskSpec{Seeds: []int64{1}, MaxExecutions: 10})
	sup := &Supervisor{
		Factory: func(slot, spawn int) Transport {
			return &scriptedTransport{lines: []string{`{"type":"ready","proto":"` + version + `"}`}}
		},
		Workers: 1,
		sleep:   func(time.Duration) {},
	}
	_, report, interrupted, err := RunSupervised(context.Background(), sup, tasks, nil)
	if err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("err=%v, want fleet exhaustion", err)
	}
	if interrupted {
		t.Error("handshake failure misreported as interruption")
	}
	if len(report.Deaths) == 0 {
		t.Fatal("no deaths recorded")
	}
	for _, d := range report.Deaths {
		if d.Cause != DeathHandshake {
			t.Errorf("death cause %q, want %q", d.Cause, DeathHandshake)
		}
		if !strings.Contains(d.Detail, version) {
			t.Errorf("death detail %q does not name the bad version", d.Detail)
		}
	}
}

// TestSupervisedHandshakeRejection: a worker from an OLDER build is
// rejected at the handshake.
func TestSupervisedHandshakeRejection(t *testing.T) { assertHandshakeRejected(t, "phfarm/0") }

// TestLegacyCoordinatorHandshakeRejection pins the guard in the other
// direction: this coordinator is the legacy side, the worker announces a
// NEWER protocol version, and it is rejected just the same.
func TestLegacyCoordinatorHandshakeRejection(t *testing.T) { assertHandshakeRejected(t, "phfarm/99") }
