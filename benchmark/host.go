package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host probe. The reference host is a 2-vCPU guest on a shared machine
// whose memory system — not its clock — speeds up and slows down with its
// neighbours: a register-only loop holds its time within 3%, while one seed
// of one workload, single-threaded, reads 110 to 190 ms per operation over
// a few minutes, slower than any window this benchmark can afford. So every
// timed interval is bracketed by a fixed piece of work that is slowed the
// same way, and reported divided by how slow that work was just then.
//
// The work is a dependent pointer chase through a 1 MiB random cycle: it
// fits the reference host's L2, which is where a neighbour on the sibling
// hardware thread shows first, and on one OS thread it tracks the tool's
// own allocation- and map-heavy code with an elasticity near 1
// (README.md, "Host normalisation", has the measurements). The arena is
// mapped outside the Go heap: a megabyte of live heap would slow the
// collector's pace for a program whose own live heap is a few megabytes.

const (
	probeWords = 1 << 18 // uint32s: 1 MiB
	evictWords = 1 << 21 // uint32s: 8 MiB, twice the reference host's L2
	probeSteps = 400_000
	// probeNominalMs is what the probe takes on the reference host when it
	// is quiet, so that there a host factor reads 1 and the normalised
	// metrics read as plain milliseconds. It only fixes the unit: a change
	// and its parent are divided by the same constant.
	probeNominalMs = 4.8
	// probeTrust is the reading, as a multiple of nominal, up to which the
	// tool's own code slows in step with the probe. Past it the probe
	// over-reacts: on a host disturbed enough to read 1.2 to 5 times nominal
	// within one run, operations of every workload slowed by about the
	// square root of the excess, so that is what the excess counts for.
	probeTrust = 1.5
	// hostNeighbours is how many probes on each side of an interval its
	// host factor is the median of.
	hostNeighbours = 3
)

var (
	probeOnce  sync.Once
	probeArena []uint32
	probeEvict []uint32
	probeAt    uint32
)

// offHeap returns n zeroed words the collector does not know about.
func offHeap(n int) []uint32 {
	b, err := syscall.Mmap(-1, 0, n*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]uint32, n)
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n)
}

func initProbe() {
	probeArena, probeEvict = offHeap(probeWords), offHeap(evictWords)
	for i := range probeEvict {
		probeEvict[i] = 1 // touched, so that reading it later moves real pages
	}
	// Sattolo's shuffle: one cycle through every word, from a fixed stream.
	for i := range probeArena {
		probeArena[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := probeWords - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		probeArena[i], probeArena[j] = probeArena[j], probeArena[i]
	}
}

// probe runs the fixed work once and returns its wall time in ms. Untimed,
// it first reads a line of every 64 bytes of the eviction buffer, so the
// chase starts with its arena out of L2 whatever ran before it — after a
// 50-node execution or after another probe.
func probe() float64 {
	probeOnce.Do(initProbe)
	p := probeAt
	for i := 0; i < evictWords; i += 16 {
		p += probeEvict[i]
	}
	p %= probeWords
	start := time.Now()
	for i := 0; i < probeSteps; i++ {
		p = probeArena[p]
	}
	probeAt = p
	return ms(time.Since(start))
}

// probes runs the probe n times.
func probes(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = probe()
	}
	return out
}

// hostFactor is how much slower than nominal the host ran around interval
// i of a sequence probe, interval, probe, interval, ... probe: the median
// of the hostNeighbours probes before it and the hostNeighbours after it
// (fewer at the ends), over probeNominalMs. samples[i] precedes interval i.
func hostFactor(samples []float64, i int) float64 {
	lo, hi := max(0, i+1-hostNeighbours), min(len(samples), i+1+hostNeighbours)
	return factorOf(samples[lo:hi])
}

// factorOf is the host factor a set of probe readings amounts to: their
// median over probeNominalMs, compressed past probeTrust.
func factorOf(samples []float64) float64 {
	h := median(samples) / probeNominalMs
	switch {
	case h <= 0:
		return 1
	case h > probeTrust:
		return probeTrust * math.Sqrt(h/probeTrust)
	}
	return h
}

// withCores runs f with GOMAXPROCS at min(nproc, n). The measured passes
// run on one core (main.go); the traced pass borrows the second one to
// say what a second worker would buy.
func withCores(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(min(runtime.NumCPU(), n)))
	f()
}
