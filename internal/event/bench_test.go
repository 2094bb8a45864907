package event

import (
	"fmt"
	"testing"

	"autorfm/internal/clk"
)

// dispatchHandler models a steady-state component event: long-lived,
// re-armed from inside its own callback at a per-handler period with the
// next argument, as a bank re-arms its scheduling pass with its next
// generation, so the benchmark exercises the queue at a constant working
// size with interleaved deadlines — the shape of the simulator's queue in
// flight.
type dispatchHandler struct {
	q      *Queue
	period clk.Tick
}

func (d *dispatchHandler) OnEvent(now clk.Tick) { d.q.ScheduleArg(now+d.period, d, d.q.Arg()+1) }

// BenchmarkEventDispatch measures one argument schedule plus dispatch
// cycle through the batched loop the simulator runs (DispatchWhile), at a
// queue depth of 1024 handlers, and at 78, the mean number of events in
// flight on perfbench's steady jobs. This is the engine's hot loop: ns/op
// here bounds events/sec for every simulation, and allocs/op must be 0.
func BenchmarkEventDispatch(b *testing.B) {
	for _, depth := range []int{1024, 78} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) { benchDispatch(b, depth) })
	}
}

// benchDispatch is BenchmarkEventDispatch at one queue depth.
func benchDispatch(b *testing.B, depth int) {
	q := &Queue{}
	for i := 0; i < depth; i++ {
		h := &dispatchHandler{q: q, period: clk.Tick(1 + i%7)}
		q.Schedule(clk.Tick(i%13), h)
	}
	live := 1 // no handler counts it down: the loop runs b.N events
	b.ReportAllocs()
	b.ResetTimer()
	q.DispatchWhile(&live, b.N)
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEventDispatchContainerHeap is the full pre-rewrite engine: the
// container/heap + interface{}-boxed reference queue (refQueue, kept
// verbatim in property_test.go) driven with a fresh capturing closure per
// arm. Against BenchmarkEventDispatch it measures the whole tentpole —
// typed heap plus pooled handlers — on identical schedules.
func BenchmarkEventDispatchContainerHeap(b *testing.B) {
	q := &refQueue{}
	const depth = 1024
	var arm func(period clk.Tick) Func
	arm = func(period clk.Tick) Func {
		return func(now clk.Tick) { q.at(now+period, arm(period)) }
	}
	for i := 0; i < depth; i++ {
		q.at(clk.Tick(i%13), arm(clk.Tick(1+i%7)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkEventDispatchClosure is the same loop through Func closures,
// constructing a fresh capturing closure per arm — the pre-rewrite
// call-site pattern. The gap between this and BenchmarkEventDispatch is
// what pooling the call sites buys.
func BenchmarkEventDispatchClosure(b *testing.B) {
	q := &Queue{}
	const depth = 1024
	var arm func(period clk.Tick) Func
	arm = func(period clk.Tick) Func {
		return func(now clk.Tick) { q.Schedule(now+period, arm(period)) }
	}
	for i := 0; i < depth; i++ {
		q.Schedule(clk.Tick(i%13), arm(clk.Tick(1+i%7)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
}
