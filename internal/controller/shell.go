package controller

import (
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/sim"
)

// Spec is what a connection-holding component declares of itself, as a
// value in its own source: who it is, where it connects, what it caches,
// and the functions the shell runs for it. Everything else about its
// lifecycle — registration, boot, crash, restart, capture, restore — is the
// Shell's, written once.
type Spec struct {
	// ID is the component's network identity and the name its timers are
	// armed under; its connection's go under <ID>/informers and its queue's
	// under <ID>/queue.
	ID sim.NodeID
	// Upstream returns the apiserver to connect to and the RPC timeout. It
	// is asked at every boot, so a crashed component steered elsewhere
	// (core.Resteerable) comes back there.
	Upstream func() (api sim.NodeID, timeout sim.Duration)
	// Informers are the component's caches, started in this order.
	Informers []InformerSpec
	// Reconcile processes the work queue's keys; nil means no queue.
	Reconcile func(key string) (Result, error)
	// Fire runs the component's own timers, armed with After; nil means it
	// has none, and no owner is registered for it.
	Fire func(sim.EventTag)
	// Connected runs at boot on the new connection, before any informer
	// lists: what the component must have sent first.
	Connected func()
	// Booted runs at the end of a boot, after every informer has started:
	// where the component arms its first timers.
	Booted func()
	// Crashed runs at the end of a crash: where the component forgets what a
	// process keeps in memory only.
	Crashed func()
}

// CallTimeout is the RPC timeout every component that bounds its calls
// gives Upstream.
const CallTimeout = 200 * sim.Millisecond

// InformerSpec declares one informer cache.
type InformerSpec struct {
	// Into is the component's field for this informer. The shell stores the
	// boot's informer there at every boot and restore and nil at a crash, so
	// the component reads its field and never looks an informer up.
	Into **client.Informer
	Kind cluster.Kind
	Cfg  client.InformerConfig
	// Handler builds the handler to attach; nil attaches none. It is called
	// once the boot's queue exists (Shell.EnqueueHandler is one).
	Handler func() client.EventHandler
}

// Shell is one connection-holding component's lifecycle: what a boot of it
// owns — the owner of its timers, its connection, its informers, its work
// queue — and the crash, restart, capture and restore that every such
// component goes through alike. A component embeds a Shell, declares a Spec,
// and is made by Start or Restore; the sim.Process and sim.Handler the world
// sees is the component, through the methods promoted from here.
//
// A boot is its owners (DESIGN.md §7, "the incarnation rule"): the world
// retires the component's at a crash and registers the next at a restart,
// and Crash retires the children's, so nothing a dead boot armed — timer,
// watch push or RPC response — reaches the live one.
type Shell struct {
	spec  Spec
	world *sim.World

	timers *sim.Timers // the world's; nil without spec.Fire
	conn   *client.Conn
	queue  *Queue // nil without spec.Reconcile
}

// ShellSnapshot captures a shell's children. The informer caches live inside
// the connection snapshot; every pending timer — the component's, the
// informers', the queue's — is a kernel event, carried by the kernel
// snapshot; whether the component is down is the network's.
type ShellSnapshot struct {
	Conn  *client.ConnSnapshot
	Queue *QueueSnapshot // nil without a queue
}

// wire joins comp, the component embedding s, to the world. It is the
// component that joins, not the shell, so what else the component
// implements (core.Resteerable) is found on the process.
func (s *Shell) wire(w *sim.World, comp sim.Node, spec Spec) {
	for i, is := range spec.Informers {
		for _, earlier := range spec.Informers[:i] {
			if earlier.Kind == is.Kind {
				panic("controller: " + string(spec.ID) + " declares two informers of kind " + string(is.Kind))
			}
		}
	}
	s.spec, s.world = spec, w
	s.timers = w.Join(comp, spec.Fire)
}

// Start registers comp, the component embedding s, and boots it.
func (s *Shell) Start(w *sim.World, comp sim.Node, spec Spec) {
	s.wire(w, comp, spec)
	s.boot()
}

// boot makes one boot's connection, queue and informers and starts them.
func (s *Shell) boot() {
	api, timeout := s.spec.Upstream()
	s.conn = client.NewConn(s.world, s.spec.ID, api, timeout)
	if s.spec.Connected != nil {
		s.spec.Connected()
	}
	if s.spec.Reconcile != nil {
		s.queue = NewQueue(s.world.Kernel(), string(s.spec.ID)+"/queue", DefaultQueueConfig(), ReconcilerFunc(s.spec.Reconcile))
	}
	for _, is := range s.spec.Informers {
		*is.Into = client.NewInformer(s.conn, is.Kind, is.Cfg)
		if is.Handler != nil {
			(*is.Into).AddHandler(is.Handler())
		}
	}
	for _, is := range s.spec.Informers {
		(*is.Into).Run()
	}
	if s.spec.Booted != nil {
		s.spec.Booted()
	}
}

// ID implements sim.Process.
func (s *Shell) ID() sim.NodeID { return s.spec.ID }

// World returns the world the component lives in.
func (s *Shell) World() *sim.World { return s.world }

// Conn returns the current boot's API connection.
func (s *Shell) Conn() *client.Conn { return s.conn }

// Queue returns the current boot's work queue.
func (s *Shell) Queue() *Queue { return s.queue }

// EnqueueHandler is the InformerSpec.Handler that maps every event to its
// object's name on the boot's queue.
func (s *Shell) EnqueueHandler() client.EventHandler { return EnqueueHandler{Queue: s.queue} }

// After arms one of the component's own timers: spec.Fire(tag) runs after
// d, unless the boot that armed it has crashed by then.
func (s *Shell) After(d sim.Duration, tag sim.EventTag) sim.Timer { return s.timers.After(d, tag) }

// Crash implements sim.Process: the boot is over. Its timers, its
// connection's and its queue's still come due, and run nothing.
func (s *Shell) Crash() {
	s.conn.Reset()
	if s.queue != nil {
		s.queue.Stop()
	}
	for _, is := range s.spec.Informers {
		*is.Into = nil
	}
	if s.spec.Crashed != nil {
		s.spec.Crashed()
	}
}

// Restart implements sim.Process: the next boot, under the names the last
// one's retirement freed.
func (s *Shell) Restart() { s.boot() }

// HandleMessage implements sim.Handler. The network delivers nothing to a
// crashed node, and a reset connection has nothing for a message to reach.
func (s *Shell) HandleMessage(m *sim.Message) { s.conn.HandleMessage(m) }

// Snapshot captures the shell, whose connection must be Quiescent: the
// continuation of a call in flight is nothing a snapshot can carry.
func (s *Shell) Snapshot() ShellSnapshot {
	snap := ShellSnapshot{Conn: s.conn.Snapshot()}
	if s.queue != nil {
		snap.Queue = s.queue.Snapshot()
	}
	return snap
}

// Restore registers comp, the component embedding s, as Start does, and
// gives it the captured boot back instead of a new one: the connection with
// its informer caches, the queue, each declared handler attached without a
// replay of the cache, no timer armed. A component the world records as down
// comes back with its owners retired, ready to Restart.
func (s *Shell) Restore(w *sim.World, comp sim.Node, spec Spec, snap ShellSnapshot) {
	s.wire(w, comp, spec)
	s.conn = client.RestoreConn(w, snap.Conn)
	if snap.Queue != nil {
		s.queue = RestoreQueue(w.Kernel(), snap.Queue, ReconcilerFunc(spec.Reconcile))
	}
	for _, is := range spec.Informers {
		*is.Into = s.conn.InformerFor(is.Kind) // nil when captured down
		if *is.Into != nil && is.Handler != nil {
			(*is.Into).RestoreHandler(is.Handler())
		}
	}
}
