package event

import (
	"testing"

	"autorfm/internal/clk"
)

func TestOrdering(t *testing.T) {
	var q Queue
	var got []int
	q.Schedule(clk.NS(30), Func(func(clk.Tick) { got = append(got, 3) }))
	q.Schedule(clk.NS(10), Func(func(clk.Tick) { got = append(got, 1) }))
	q.Schedule(clk.NS(20), Func(func(clk.Tick) { got = append(got, 2) }))
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
		q.Schedule(clk.NS(5), Func(func(clk.Tick) { got = append(got, i) }))
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
			q.Schedule(now+clk.NS(1), tick)
		}
	}
	q.Schedule(0, tick)
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
	q.Schedule(clk.NS(10), Func(func(now clk.Tick) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		q.Schedule(now-1, Func(func(clk.Tick) {}))
	}))
	for q.Step() {
	}
}
