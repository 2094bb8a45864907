package event

import (
	"testing"

	"autorfm/internal/clk"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.At(clk.NS(30), func(clk.Tick) { got = append(got, 3) })
	q.At(clk.NS(10), func(clk.Tick) { got = append(got, 1) })
	q.At(clk.NS(20), func(clk.Tick) { got = append(got, 2) })
	for q.Step() {
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v", got)
	}
	if q.Now() != clk.NS(30) {
		t.Fatalf("Now = %v", q.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	var q Queue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.At(clk.NS(5), func(clk.Tick) { got = append(got, i) })
	}
	for q.Step() {
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var q Queue
	count := 0
	var tick Func
	tick = func(now clk.Tick) {
		count++
		if count < 100 {
			q.At(now+clk.NS(1), tick)
		}
	}
	q.At(0, tick)
	for q.Step() {
	}
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
	if q.Now() != clk.NS(99) {
		t.Fatalf("Now = %v", q.Now())
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var q Queue
	q.At(clk.NS(10), func(now clk.Tick) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.At(now-1, func(clk.Tick) {})
	})
	for q.Step() {
	}
}

func TestRunUntil(t *testing.T) {
	var q Queue
	ran := 0
	for i := 1; i <= 10; i++ {
		q.At(clk.NS(int64(i)), func(clk.Tick) { ran++ })
	}
	n := q.RunUntil(clk.NS(5))
	if n != 5 || ran != 5 {
		t.Fatalf("RunUntil dispatched %d/%d", n, ran)
	}
	if q.Len() != 5 {
		t.Fatalf("Len = %d, want 5", q.Len())
	}
	// RunUntil advances Now to the deadline even past the last event.
	q.RunUntil(clk.NS(100))
	if q.Now() != clk.NS(100) {
		t.Fatalf("Now = %v, want 100ns", q.Now())
	}
}

// TestRunUntilSameTickNotStranded reproduces a bug where RunUntil's
// deadline check used nextTime after a slow-path dispatch had popped only
// the head of a same-tick bucket: the remaining t==now event was invisible
// to nextBucket's circular scan (which starts after now), so RunUntil broke
// on the later event's time, advanced the clock past the stranded event,
// and later dispatched it out of order with Now() rewinding.
func TestRunUntilSameTickNotStranded(t *testing.T) {
	var q Queue
	var got []int
	var at []clk.Tick
	rec := func(id int) Func {
		return func(now clk.Tick) {
			got = append(got, id)
			at = append(at, now)
		}
	}
	q.At(100, rec(1))
	q.At(100, rec(2))
	q.At(150, rec(3))

	if n := q.RunUntil(120); n != 2 {
		t.Fatalf("RunUntil(120) dispatched %d events, want 2 (both t=100)", n)
	}
	if q.Now() != 120 {
		t.Fatalf("Now = %v after RunUntil(120), want 120", q.Now())
	}
	q.RunUntil(200)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("dispatch order = %v, want [1 2 3]", got)
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("dispatch times rewind: %v", at)
		}
	}
}

func TestRunWithStop(t *testing.T) {
	var q Queue
	ran := 0
	for i := 0; i < 10; i++ {
		q.At(clk.NS(int64(i)), func(clk.Tick) { ran++ })
	}
	q.Run(func() bool { return ran >= 3 })
	if ran != 3 {
		t.Fatalf("ran = %d, want 3", ran)
	}
}

func TestAfter(t *testing.T) {
	var q Queue
	fired := clk.Tick(-1)
	q.At(clk.NS(10), func(now clk.Tick) {
		q.After(clk.NS(5), func(now clk.Tick) { fired = now })
	})
	for q.Step() {
	}
	if fired != clk.NS(15) {
		t.Fatalf("After fired at %v, want 15ns", fired)
	}
}
