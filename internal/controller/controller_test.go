package controller

import (
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/sim"
)

func TestQueueProcessesInOrder(t *testing.T) {
	k := sim.NewKernel(1)
	var got []string
	q := NewQueue(k, "q", DefaultQueueConfig(), ReconcilerFunc(func(key string) (Result, error) {
		got = append(got, key)
		return Result{}, nil
	}))
	q.Add("a")
	q.Add("b")
	q.Add("a") // dedup while queued
	k.Drain()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("reconciled %v, want [a b]", got)
	}
}

func TestQueueReaddDuringProcessing(t *testing.T) {
	k := sim.NewKernel(1)
	count := 0
	var q *Queue
	q = NewQueue(k, "q", DefaultQueueConfig(), ReconcilerFunc(func(key string) (Result, error) {
		count++
		if count == 1 {
			q.Add(key) // re-add while being processed: must run again
		}
		return Result{}, nil
	}))
	q.Add("x")
	k.Drain()
	if count != 2 {
		t.Fatalf("count = %d, want 2", count)
	}
}

func TestQueueErrorBackoff(t *testing.T) {
	k := sim.NewKernel(1)
	attempts := 0
	q := NewQueue(k, "q", DefaultQueueConfig(), ReconcilerFunc(func(key string) (Result, error) {
		attempts++
		if attempts < 4 {
			return Result{}, errors.New("boom")
		}
		return Result{}, nil
	}))
	q.Add("x")
	k.Drain()
	if attempts != 4 {
		t.Fatalf("attempts = %d, want three failures and a success", attempts)
	}
	// Exponential backoff: successful run happens after cumulative delays.
	if k.Now() < sim.Time(5*sim.Millisecond+10*sim.Millisecond+20*sim.Millisecond) {
		t.Fatalf("backoff too short: finished at %v", k.Now())
	}
}

func TestQueueBackoffCapped(t *testing.T) {
	cfg := QueueConfig{BaseBackoff: 100 * sim.Millisecond, MaxBackoff: 200 * sim.Millisecond}
	k := sim.NewKernel(1)
	attempts := 0
	q := NewQueue(k, "q", cfg, ReconcilerFunc(func(key string) (Result, error) {
		attempts++
		if attempts < 6 {
			return Result{}, errors.New("boom")
		}
		return Result{}, nil
	}))
	q.Add("x")
	k.SetMaxSteps(10000)
	k.Drain()
	if attempts != 6 {
		t.Fatalf("attempts = %d", attempts)
	}
	// 5 failures: 100 + 200 + 200 + 200 + 200 = 900ms minimum.
	if k.Now() > sim.Time(2*sim.Second) {
		t.Fatalf("backoff not capped: %v", k.Now())
	}
}

func TestQueueRequeueAfter(t *testing.T) {
	k := sim.NewKernel(1)
	runs := 0
	q := NewQueue(k, "q", DefaultQueueConfig(), ReconcilerFunc(func(key string) (Result, error) {
		runs++
		if runs == 1 {
			return Result{Requeue: true, RequeueAfter: 50 * sim.Millisecond}, nil
		}
		return Result{}, nil
	}))
	q.Add("x")
	k.Drain()
	if runs != 2 {
		t.Fatalf("runs = %d", runs)
	}
	if k.Now() < sim.Time(50*sim.Millisecond) {
		t.Fatalf("requeue too early: %v", k.Now())
	}
}

func TestQueueStop(t *testing.T) {
	k := sim.NewKernel(1)
	runs := 0
	q := NewQueue(k, "q", DefaultQueueConfig(), ReconcilerFunc(func(key string) (Result, error) {
		runs++
		return Result{Requeue: true}, nil
	}))
	q.Add("x")
	k.Schedule(20*sim.Millisecond, q.Stop)
	k.SetMaxSteps(100000)
	k.Drain()
	if runs == 0 {
		t.Fatal("never ran")
	}
	final := runs
	k.SetMaxSteps(0)
	q.Add("y")
	k.Drain()
	if runs != final {
		t.Fatal("queue processed after Stop")
	}
}

func TestEnqueueHandler(t *testing.T) {
	k := sim.NewKernel(1)
	var got []string
	q := NewQueue(k, "q", DefaultQueueConfig(), ReconcilerFunc(func(key string) (Result, error) {
		got = append(got, key)
		return Result{}, nil
	}))
	h := EnqueueHandler{Queue: q}
	pod := cluster.NewPod("p1", "u1", cluster.PodSpec{})
	h.OnAdd(pod)
	k.Drain()
	h.OnUpdate(pod, pod)
	k.Drain()
	h.OnDelete(pod)
	k.Drain()
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}
