package sim

import (
	"math"
	"math/rand"
	"testing"
)

func TestKernelOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.Schedule(10, func() { got = append(got, 2) })
	k.Schedule(5, func() { got = append(got, 1) })
	k.Schedule(10, func() { got = append(got, 3) }) // same time: FIFO by seq
	k.Schedule(20, func() { got = append(got, 4) })
	k.Drain()
	want := []int{1, 2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestKernelTimeAdvances(t *testing.T) {
	k := NewKernel(1)
	var at Time
	k.Schedule(42, func() { at = k.Now() })
	k.Drain()
	if at != 42 {
		t.Fatalf("callback ran at %d, want 42", at)
	}
	if k.Now() != 42 {
		t.Fatalf("kernel stopped at %d, want 42", k.Now())
	}
}

func TestKernelNegativeDelayClamped(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Schedule(-5, func() { ran = true })
	k.Drain()
	if !ran {
		t.Fatal("negative-delay callback did not run")
	}
	if k.Now() != 0 {
		t.Fatalf("time moved backwards: %d", k.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	k := NewKernel(1)
	ran := false
	tm := k.Schedule(10, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("cancel should succeed on pending timer")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should fail")
	}
	k.Drain()
	if ran {
		t.Fatal("canceled callback ran")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	k := NewKernel(1)
	tm := k.Schedule(1, func() {})
	k.Drain()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

func TestRunUntilStopsBeforeEvent(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.Schedule(100, func() { ran = true })
	k.Run(50)
	if ran {
		t.Fatal("event at t=100 ran during Run(50)")
	}
	if k.Now() != 50 {
		t.Fatalf("now = %d, want 50", k.Now())
	}
	k.Drain()
	if !ran {
		t.Fatal("event never ran")
	}
}

func TestRunForRelative(t *testing.T) {
	k := NewKernel(1)
	k.Schedule(10, func() {})
	k.Drain()
	fired := false
	k.Schedule(30, func() { fired = true })
	k.RunFor(20) // until t=30 exclusive
	if fired {
		t.Fatal("event at +30 fired within RunFor(20)")
	}
	k.RunFor(15)
	if !fired {
		t.Fatal("event did not fire")
	}
}

func TestStopInsideCallback(t *testing.T) {
	k := NewKernel(1)
	count := 0
	for i := 0; i < 10; i++ {
		k.Schedule(Duration(i), func() {
			count++
			if count == 3 {
				k.Stop()
			}
		})
	}
	k.Drain()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestMaxStepsBudget(t *testing.T) {
	k := NewKernel(1)
	k.SetMaxSteps(5)
	// Self-perpetuating event chain (livelock model).
	var tick func()
	tick = func() { k.Schedule(1, tick) }
	k.Schedule(0, tick)
	k.Drain()
	if k.Steps() != 5 {
		t.Fatalf("steps = %d, want 5", k.Steps())
	}
}

func TestSchedulingInsideCallback(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Schedule(10, func() {
		order = append(order, "outer")
		k.Schedule(0, func() { order = append(order, "inner-now") })
		k.Schedule(5, func() { order = append(order, "inner-later") })
	})
	k.Schedule(12, func() { order = append(order, "mid") })
	k.Drain()
	want := []string{"outer", "inner-now", "mid", "inner-later"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestDeterministicRand(t *testing.T) {
	seq := func(seed int64) []int64 {
		k := NewKernel(seed)
		var out []int64
		for i := 0; i < 8; i++ {
			out = append(out, k.Rand().Int63n(1000))
		}
		return out
	}
	a, b := seq(7), seq(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	c := seq(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestPendingCount(t *testing.T) {
	k := NewKernel(1)
	t1 := k.Schedule(1, func() {})
	k.Schedule(2, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", k.Pending())
	}
	t1.Cancel()
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 after cancel", k.Pending())
	}
}

func TestTimeString(t *testing.T) {
	tm := Time(1500 * Millisecond)
	if tm.String() != "1.500000s" {
		t.Fatalf("Time.String() = %q", tm.String())
	}
	d := Duration(250 * Microsecond)
	if d.String() != "0.000250s" {
		t.Fatalf("Duration.String() = %q", d.String())
	}
}

// TestSourceIsMathRand: the kernel's stream is math/rand's, draw for draw,
// for any seed (math/rand folds seeds modulo 2^31-1 and maps 0 elsewhere),
// through every Rand method the simulation uses; and a kernel restored from
// a snapshot goes on with the stream where the capture left it, without
// replaying it.
func TestSourceIsMathRand(t *testing.T) {
	for _, seed := range []int64{1, 0, -1, 1021, 4060, 1<<31 - 1, 1 << 40, math.MinInt64, math.MaxInt64} {
		k := NewKernel(seed)
		want := rand.New(rand.NewSource(seed))
		draw := func(n int) {
			for i := 0; i < n; i++ {
				var got, exp int64
				switch i % 4 {
				case 0:
					got, exp = int64(k.Rand().Uint64()), int64(want.Uint64())
				case 1:
					got, exp = k.Rand().Int63(), want.Int63()
				case 2:
					got, exp = k.Rand().Int63n(1000), want.Int63n(1000)
				default:
					got, exp = int64(k.Rand().Intn(7)), int64(want.Intn(7))
				}
				if got != exp {
					t.Fatalf("seed %d: draw %d is %d, math/rand's %d", seed, k.RNGDraws(), got, exp)
				}
			}
		}
		draw(1000)
		snap, ok := k.CaptureSnapshot()
		if !ok {
			t.Fatal("an idle kernel refused a snapshot")
		}
		draws := k.RNGDraws()
		k = NewRestoredKernel(snap)
		if k.RNGDraws() != draws {
			t.Fatalf("seed %d: restored at draw %d, captured at %d", seed, k.RNGDraws(), draws)
		}
		draw(1000)
	}
}
