package farm

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// Transport launches one worker and exposes its two message pipes. The
// coordinator speaks the same NDJSON protocol over any transport;
// subprocess pipes are the local implementation, an in-process
// goroutine serves tests, and a TCP dialer can slot in later without
// touching the coordinator.
type Transport interface {
	// Start launches the worker and returns the coordinator's ends of
	// its message streams: in carries coordinator→worker messages, out
	// carries worker→coordinator messages.
	Start() (in io.WriteCloser, out io.Reader, err error)
	// Kill force-stops the worker mid-task (cancellation path). Safe to
	// call more than once and after a clean exit.
	Kill()
	// Wait blocks until the worker has exited and releases its
	// resources.
	Wait() error
}

// ProcessTransport runs a worker as a subprocess speaking the protocol
// over its stdin/stdout; stderr passes through to the coordinator's so
// worker diagnostics stay visible, while the last few KB are also kept
// in a ring so a death record can quote what the worker said on the way
// down.
type ProcessTransport struct {
	Path string
	Args []string

	cmd  *exec.Cmd
	tail *tailWriter
}

// NewProcessTransport returns a transport that will exec path with args
// (typically the coordinator's own binary with -worker).
func NewProcessTransport(path string, args ...string) *ProcessTransport {
	return &ProcessTransport{Path: path, Args: args}
}

func (t *ProcessTransport) Start() (io.WriteCloser, io.Reader, error) {
	cmd := exec.Command(t.Path, t.Args...)
	t.tail = &tailWriter{}
	cmd.Stderr = io.MultiWriter(os.Stderr, t.tail)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, nil, fmt.Errorf("farm: worker stdin: %w", err)
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, fmt.Errorf("farm: worker stdout: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("farm: start worker: %w", err)
	}
	t.cmd = cmd
	return in, out, nil
}

func (t *ProcessTransport) Kill() {
	if t.cmd != nil && t.cmd.Process != nil {
		_ = t.cmd.Process.Kill()
	}
}

func (t *ProcessTransport) Wait() error {
	if t.cmd == nil {
		return nil
	}
	return t.cmd.Wait()
}

// StderrTail returns the last few KB the worker wrote to stderr —
// death evidence for the supervision layer. Empty before Start.
func (t *ProcessTransport) StderrTail() string {
	if t.tail == nil {
		return ""
	}
	return t.tail.String()
}

// stderrTailer is the optional transport capability the supervisor
// probes for when assembling death evidence.
type stderrTailer interface {
	StderrTail() string
}

// tailWriter keeps the last tailLimit bytes written through it. Writes
// are serialized (the subprocess's stderr copier is a single goroutine)
// but reads can race a dying worker's final writes, so a mutex guards
// the buffer.
type tailWriter struct {
	mu  sync.Mutex
	buf []byte
}

const tailLimit = 4 << 10

func (t *tailWriter) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailLimit {
		t.buf = t.buf[len(t.buf)-tailLimit:]
	}
	return len(p), nil
}

func (t *tailWriter) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// InProcTransport runs WorkerLoop in a goroutine connected by pipes —
// the test double that exercises the full protocol (framing, record
// streaming, shutdown) without spawning processes. Kill closes the
// pipes, which stops the protocol loop; a task already executing inside
// the engine runs to completion in the background (in-process code
// cannot be preempted), its result discarded.
type InProcTransport struct {
	inW  *io.PipeWriter
	outR *io.PipeReader
	done chan error
}

func NewInProcTransport() *InProcTransport { return &InProcTransport{} }

func (t *InProcTransport) Start() (io.WriteCloser, io.Reader, error) {
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	t.inW, t.outR = inW, outR
	t.done = make(chan error, 1)
	go func() {
		err := WorkerLoop(inR, outW)
		outW.CloseWithError(io.EOF)
		inR.CloseWithError(io.EOF)
		t.done <- err
	}()
	return inW, outR, nil
}

func (t *InProcTransport) Kill() {
	if t.inW != nil {
		t.inW.CloseWithError(io.ErrClosedPipe)
	}
	if t.outR != nil {
		t.outR.CloseWithError(io.ErrClosedPipe)
	}
}

func (t *InProcTransport) Wait() error {
	if t.done == nil {
		return nil
	}
	return <-t.done
}
