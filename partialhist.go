// Package partialhist is a research toolkit for reasoning about — and
// testing — modern datacenter infrastructures using partial histories, a
// from-scratch reproduction of Sun et al., "Reasoning about modern
// datacenter infrastructures using partial histories" (HotOS '21).
//
// # The model
//
// The cluster state S lives in a logically centralized, strongly
// consistent store; the history H is the ordered sequence of committed
// changes to S. Every other component — apiservers, schedulers, kubelets,
// operators — observes the world through a partial history H' ⊆ H,
// delivered via watches and layered caches. Three failure patterns grow
// out of that gap (paper §4.2): staleness (H' lags H), time traveling (a
// component re-observes its own past after a restart or upstream switch),
// and observability gaps (events of H that H' never contains).
//
// # What is in this module
//
// The repository contains a complete simulated infrastructure and the
// testing tool the paper sketches:
//
//   - internal/sim — deterministic discrete-event kernel, network with
//     interceptors (delay/drop), crash/restart process model.
//   - internal/store — etcd-like MVCC store: revisions, transactions,
//     watches, compaction; and a raft-replicated variant (internal/raftlite)
//     over a write-ahead log (internal/wal).
//   - internal/apiserver, internal/client — the two cache layers of the
//     paper's Figure 1: apiserver watch caches and client-go-style
//     informers.
//   - internal/kubelet, internal/scheduler, internal/controllers,
//     internal/operators/cassandra, internal/regions — the services under
//     test, each shipping its historical bug and the corresponding fix.
//   - internal/core — the contribution: trace-guided perturbation
//     planning (staleness / time-travel / gap plans), single-plan
//     replay and plan minimization.
//   - internal/campaign — the campaign loop: a parallel engine that
//     sweeps plans × seeds and folds the per-seed parts into one result.
//   - internal/baselines — random fault injection, CrashTuner-like and
//     CoFI-like heuristics for comparison.
//   - internal/oracle — the safety and liveness invariants used as test
//     oracles.
//   - internal/epochs, internal/leasecache — the §6.2 epoch-bounded view
//     proposal and the §4.1 lease alternative, both measured in the
//     benchmark suite.
//
// # Entry points
//
// Run `go test -bench=. -benchmem` at the module root to regenerate every
// experiment (E1–E12 in EXPERIMENTS.md), or use the commands:
//
//	go run ./cmd/phtest      # the Section 7 bug-finding matrix
//	go run ./cmd/clustersim  # drive one scenario, watch the oracles
//	go run ./cmd/traceview   # inspect a reference trace and its plans
//
// and the walkthroughs, Example tests whose output go test checks:
//
//	go test -v -run '^Example' ./internal/...
package partialhist
