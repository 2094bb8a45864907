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
