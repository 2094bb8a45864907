package memctrl

import (
	"math"
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/mapping"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
)

// rig bundles a controller with its queue and device for tests.
type rig struct {
	q   *event.Queue
	c   *Controller
	d   *dram.Device
	geo mapping.Geometry
	m   mapping.Mapper
}

func newRig(mode dram.Mode, th int, pol string) *rig {
	geo := mapping.Default()
	dcfg := dram.Config{
		Geo:    geo,
		Timing: clk.DDR5(),
		Mode:   mode,
		TH:     th,
		Seed:   7,
	}
	if pol != "" {
		dcfg.NewPolicy = func(bank int, r *rng.Source, _ mitigation.Policy) mitigation.Policy {
			p, err := mitigation.ByName(pol, r)
			if err != nil {
				panic(err)
			}
			return p
		}
	}
	if mode == dram.ModePRAC {
		dcfg.Timing = clk.PRAC()
		dcfg.PRACETh = 100
	}
	d := dram.NewDevice(dcfg)
	q := &event.Queue{}
	m := mapping.NewZen(geo)
	c := New(Config{Timing: dcfg.Timing, Mapper: m, RFMTH: th}, d, q)
	return &rig{q: q, c: c, d: d, geo: geo, m: m}
}

// lineFor builds a line address that maps to the given bank/row/col.
func (r *rig) lineFor(bank int, row uint32, col uint16) uint64 {
	return r.m.Unmap(mapping.Location{Bank: bank, Row: row, Col: col})
}

// runUntil dispatches the events due by deadline and leaves the clock
// there: a stop event armed at the deadline ends the DispatchWhile, as the
// REF stream re-arms forever and the queue never empties on its own.
func (r *rig) runUntil(deadline clk.Tick) {
	live := 1
	r.q.Schedule(deadline, event.Func(func(clk.Tick) { live = 0 }))
	r.q.DispatchWhile(&live, math.MaxInt)
}

func (r *rig) drain() {
	for r.q.Step() {
		if r.c.Pending() == 0 && r.q.Len() <= 1 {
			// Only the recurring REF event remains.
			break
		}
	}
}

func TestReadCompletesWithActLatency(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	var done clk.Tick = -1
	r.c.Submit(&Request{Line: r.lineFor(0, 100, 0), Done: event.Func(func(now clk.Tick) { done = now })})
	r.drain()
	tm := clk.DDR5()
	want := tm.TRCD + tm.TCL + tm.TBURST
	if done != want {
		t.Fatalf("read completed at %v, want %v (tRCD+tCL+tBURST)", done, want)
	}
	if r.c.Stats.Acts != 1 || r.c.Stats.Reads != 1 {
		t.Fatalf("stats: %+v", r.c.Stats)
	}
}

func TestSameBankActsRespectTRC(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	var times []clk.Tick
	for i := 0; i < 4; i++ {
		row := uint32(1000 * (i + 1)) // distinct rows, same bank
		r.c.Submit(&Request{Line: r.lineFor(3, row, 0), Done: event.Func(func(now clk.Tick) {
			times = append(times, now)
		})})
	}
	r.drain()
	if len(times) != 4 {
		t.Fatalf("completed %d reads", len(times))
	}
	tm := clk.DDR5()
	for i := 1; i < len(times); i++ {
		if gap := times[i] - times[i-1]; gap < tm.TRC {
			t.Fatalf("back-to-back conflicting reads %d apart (%v), want ≥ tRC", i, gap)
		}
	}
}

func TestRowHitWithinTRAS(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	var first, second clk.Tick
	// Two columns of the same row, submitted together: the second should be
	// a row hit, far faster than tRC.
	r.c.Submit(&Request{Line: r.lineFor(0, 42, 0), Done: event.Func(func(now clk.Tick) { first = now })})
	r.c.Submit(&Request{Line: r.lineFor(0, 42, 1), Done: event.Func(func(now clk.Tick) { second = now })})
	r.drain()
	if r.c.Stats.RowHits != 1 {
		t.Fatalf("RowHits = %d, want 1", r.c.Stats.RowHits)
	}
	if gap := second - first; gap >= clk.DDR5().TRC {
		t.Fatalf("row hit took %v, want < tRC", gap)
	}
}

func TestNoRowHitAfterTRAS(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	r.c.Submit(&Request{Line: r.lineFor(0, 42, 0)})
	// Let the row auto-precharge, then access the same row again.
	r.runUntil(clk.NS(100))
	r.c.Submit(&Request{Line: r.lineFor(0, 42, 1)})
	r.drain()
	if r.c.Stats.RowHits != 0 {
		t.Fatalf("RowHits = %d, want 0 (closed-page auto-precharge)", r.c.Stats.RowHits)
	}
	if r.c.Stats.Acts != 2 {
		t.Fatalf("Acts = %d, want 2", r.c.Stats.Acts)
	}
}

func TestBankParallelism(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	var times []clk.Tick
	for b := 0; b < 8; b++ {
		r.c.Submit(&Request{Line: r.lineFor(b, 7, 0), Done: event.Func(func(now clk.Tick) {
			times = append(times, now)
		})})
	}
	r.drain()
	// Eight different banks: limited only by the data bus, so the span must
	// be far below 8×tRC.
	span := times[len(times)-1] - times[0]
	if span > clk.DDR5().TRC {
		t.Fatalf("8-bank span = %v, want ≤ tRC (bank-level parallelism)", span)
	}
}

func TestRFMInsertedEveryTHActs(t *testing.T) {
	r := newRig(dram.ModeRFM, 4, "")
	const n = 32
	for i := 0; i < n; i++ {
		r.c.Submit(&Request{Line: r.lineFor(0, uint32(100+10*i), 0)})
	}
	r.drain()
	// Let the idle banks drain their accumulated RAA opportunistically.
	r.runUntil(r.q.Now() + clk.NS(3000))
	// 32 ACTs at RFMTH=4 → 8 RFMs in total: deferred past demand where
	// possible (RAAmax rule), then drained during idle time.
	if r.c.Stats.RFMs != 8 {
		t.Fatalf("RFMs = %d, want 8", r.c.Stats.RFMs)
	}
	// Each RFM triggers a MINT selection, but back-to-back idle-drain RFMs
	// close windows early, so some selections come up empty (the tracker's
	// slot was never reached). At least half must mitigate.
	if got := r.d.TotalStats().Mitigations; got < 4 || got > 8 {
		t.Fatalf("device mitigations = %d, want 4..8", got)
	}
}

func TestRFMDeferredPastDemand(t *testing.T) {
	// With RAA below RAAmax and demand waiting, the RFM is deferred: the
	// 5th read must NOT pay the tRFM stall.
	r := newRig(dram.ModeRFM, 4, "")
	var times []clk.Tick
	for i := 0; i < 5; i++ {
		r.c.Submit(&Request{Line: r.lineFor(0, uint32(100+10*i), 0), Done: event.Func(func(now clk.Tick) {
			times = append(times, now)
		})})
	}
	r.drain()
	if gap := times[4] - times[3]; gap >= clk.DDR5().TRFM {
		t.Fatalf("post-threshold gap = %v; RFM was not deferred past demand", gap)
	}
}

func TestRFMBlocksBankAtRAAMax(t *testing.T) {
	// Once RAA reaches RAAmax (RAAMaxFactor × RFMTH), the RFM must precede
	// the next ACT even with demand queued.
	geo := mapping.Default()
	d := dram.NewDevice(dram.Config{Geo: geo, Timing: clk.DDR5(), Mode: dram.ModeRFM, TH: 4, Seed: 7})
	q := &event.Queue{}
	m := mapping.NewZen(geo)
	c := New(Config{Timing: clk.DDR5(), Mapper: m, RFMTH: 4, RAAMaxFactor: 1}, d, q)
	r := &rig{q: q, c: c, d: d, geo: geo, m: m}

	var times []clk.Tick
	for i := 0; i < 5; i++ {
		r.c.Submit(&Request{Line: r.lineFor(0, uint32(100+10*i), 0), Done: event.Func(func(now clk.Tick) {
			times = append(times, now)
		})})
	}
	r.drain()
	// The 5th read follows a forced RFM: its gap from the 4th includes tRFM.
	if gap := times[4] - times[3]; gap < clk.DDR5().TRFM {
		t.Fatalf("post-RFM gap = %v, want ≥ tRFM (205ns)", gap)
	}
	if r.c.Stats.RFMs == 0 {
		t.Fatal("no RFM issued at RAAmax")
	}
}

func TestREFResetsRAA(t *testing.T) {
	r := newRig(dram.ModeRFM, 32, "")
	// 20 ACTs per tREFI < RFMTH=32, spread over several tREFI: RAA must be
	// reset by REF each time, so no RFM is ever issued (the Fig 3 RFM-32
	// behaviour).
	tm := clk.DDR5()
	for epoch := 0; epoch < 4; epoch++ {
		for i := 0; i < 20; i++ {
			row := uint32(epoch*100 + i)
			r.c.Submit(&Request{Line: r.lineFor(0, row, 0)})
		}
		r.runUntil(r.q.Now() + tm.TREFI)
	}
	if r.c.Stats.RFMs != 0 {
		t.Fatalf("RFMs = %d, want 0 (REF resets RAA)", r.c.Stats.RFMs)
	}
	if r.c.Stats.REFs < 3 {
		t.Fatalf("REFs = %d, want ≥ 3", r.c.Stats.REFs)
	}
}

func TestAutoRFMAlertAndGuaranteedRetry(t *testing.T) {
	r := newRig(dram.ModeAutoRFM, 4, "fractal")
	// Rows 0..3 close a window (subarray 0 of bank 0 likely mitigated);
	// then immediately request another row of the same subarray.
	var mitSA int
	for i := 0; i < 4; i++ {
		r.c.Submit(&Request{Line: r.lineFor(0, uint32(i), 0)})
	}
	r.drain()
	mitSA, _ = r.d.Banks[0].SAUM()
	if mitSA != 0 {
		t.Fatalf("SAUM = %d, want 0", mitSA)
	}
	// Request a row in subarray 0 while the mitigation runs.
	var done clk.Tick = -1
	r.c.Submit(&Request{Line: r.lineFor(0, 200, 0), Done: event.Func(func(now clk.Tick) { done = now })})
	r.drain()
	if r.c.Stats.Alerts == 0 {
		t.Fatal("no ALERT despite targeting the SAUM")
	}
	if done < 0 {
		t.Fatal("alerted request never completed — retry lost")
	}
	// The request must not fail more than once (Fractal Mitigation's
	// deterministic-latency guarantee: retry after 200ns always succeeds).
	if r.c.Stats.Alerts > 1 {
		t.Fatalf("Alerts = %d, want 1 (no repeated failures)", r.c.Stats.Alerts)
	}
}

func TestAutoRFMNoRFMCommands(t *testing.T) {
	r := newRig(dram.ModeAutoRFM, 4, "fractal")
	for i := 0; i < 64; i++ {
		r.c.Submit(&Request{Line: r.lineFor(i%4, uint32(i*512), 0)})
	}
	r.drain()
	if r.c.Stats.RFMs != 0 {
		t.Fatalf("AutoRFM issued %d explicit RFMs", r.c.Stats.RFMs)
	}
	if got := r.d.TotalStats().Mitigations; got == 0 {
		t.Fatal("AutoRFM performed no transparent mitigations")
	}
}

func TestAutoRFMNonConflictingProceeds(t *testing.T) {
	r := newRig(dram.ModeAutoRFM, 4, "fractal")
	// Close a window in subarray 0, then access subarray 5: no alert, and
	// the access completes without the mitigation delay.
	for i := 0; i < 4; i++ {
		r.c.Submit(&Request{Line: r.lineFor(0, uint32(i), 0)})
	}
	r.drain()
	start := r.q.Now()
	var done clk.Tick
	r.c.Submit(&Request{Line: r.lineFor(0, 5*512+7, 0), Done: event.Func(func(now clk.Tick) { done = now })})
	r.drain()
	if r.c.Stats.Alerts != 0 {
		t.Fatal("non-conflicting access alerted")
	}
	tm := clk.DDR5()
	if lat := done - start; lat > tm.TRC+tm.TRCD+tm.TCL+tm.TBURST {
		t.Fatalf("non-conflicting access took %v", lat)
	}
}

func TestPRACBackoffStalls(t *testing.T) {
	r := newRig(dram.ModePRAC, 0, "")
	// Hammer one row past ETH (100) with interleaved reads.
	for i := 0; i < 101; i++ {
		r.c.Submit(&Request{Line: r.lineFor(0, 77, uint16(i%64))})
		r.drain()
	}
	if r.c.Stats.PRACBackoffs == 0 {
		t.Fatal("no PRAC back-off after ETH activations")
	}
	if r.d.TotalStats().Mitigations == 0 {
		t.Fatal("PRAC back-off did not mitigate")
	}
}

func TestWritesArePosted(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	r.c.Submit(&Request{Line: r.lineFor(0, 9, 0), Write: true})
	r.drain()
	if r.c.Stats.Writes != 1 {
		t.Fatalf("Writes = %d", r.c.Stats.Writes)
	}
	if r.c.Pending() != 0 {
		t.Fatal("write left pending")
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Reads: 10, Writes: 10, RowHits: 5, Acts: 100, Alerts: 1,
		ReadLatencySum: clk.NS(1000)}
	if got := s.AvgReadLatency(); got != 100 {
		t.Errorf("AvgReadLatency = %v", got)
	}
	if got := s.AlertPerAct(); got != 0.01 {
		t.Errorf("AlertPerAct = %v", got)
	}
	if got := s.RowHitRate(); got != 0.25 {
		t.Errorf("RowHitRate = %v", got)
	}
	var zero Stats
	if zero.AvgReadLatency() != 0 || zero.AlertPerAct() != 0 || zero.RowHitRate() != 0 {
		t.Error("zero stats helpers must return 0")
	}
}

// TestTFAWLimitsActivationBursts: a burst of requests to many banks of one
// subchannel must never see more than 4 ACTs inside any tFAW window.
func TestTFAWLimitsActivationBursts(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	var times []clk.Tick
	for b := 0; b < 16; b++ { // 16 banks, all subchannel 0
		r.c.Submit(&Request{Line: r.lineFor(b, 7, 0), Done: event.Func(func(now clk.Tick) {
			times = append(times, now)
		})})
	}
	r.drain()
	if len(times) != 16 {
		t.Fatalf("completed %d reads", len(times))
	}
	// Reconstruct ACT times: completion - (tRCD+tCL+tBURST) with no bus
	// delay assumed; checking completions is conservative since the bus
	// serialises further.
	tm := clk.DDR5()
	for i := 4; i < len(times); i++ {
		if gap := times[i] - times[i-4]; gap < tm.TFAW {
			t.Fatalf("5 completions within %v < tFAW", gap)
		}
	}
}

// TestTRRDSpacesActs: two simultaneous requests to different banks of one
// subchannel complete at least tRRD apart.
func TestTRRDSpacesActs(t *testing.T) {
	r := newRig(dram.ModeNone, 0, "")
	var times []clk.Tick
	for b := 0; b < 2; b++ {
		r.c.Submit(&Request{Line: r.lineFor(b, 9, 0), Done: event.Func(func(now clk.Tick) {
			times = append(times, now)
		})})
	}
	r.drain()
	if gap := times[1] - times[0]; gap < clk.DDR5().TRRD {
		t.Fatalf("cross-bank ACT spacing %v < tRRD", gap)
	}
}

// BenchmarkSchedule times the controller's scheduling passes: per op, a
// batch of 64 reads and 16 posted writes over the first 16 banks (every
// fourth line in the row of the line before it, a row-hit candidate) is
// submitted at once and drained through tryIssue, serveCAS and the device,
// REFs and mitigations included. ns/req divides by the 80 requests.
func BenchmarkSchedule(b *testing.B) {
	for _, mode := range []dram.Mode{dram.ModeRFM, dram.ModeAutoRFM} {
		b.Run(mode.String(), func(b *testing.B) {
			r := newRig(mode, 4, "")
			src := rng.New(1)
			reads := make([]Request, 64)
			lines := make([]uint64, 4096)
			var bank int
			var row uint32
			for i := range lines {
				if i%4 != 3 { // every fourth line reuses the row before it
					bank, row = src.Intn(16), uint32(src.Intn(8192))
				}
				lines[i] = r.lineFor(bank, row, uint16(src.Intn(64)))
			}
			const writes = 16
			b.ReportAllocs()
			b.ResetTimer()
			next := 0
			for i := 0; i < b.N; i++ {
				for k := range reads {
					reads[k].Line = lines[next%len(lines)]
					next++
					r.c.Submit(&reads[k])
				}
				for k := 0; k < writes; k++ {
					r.c.SubmitWrite(lines[next%len(lines)])
					next++
				}
				r.drain()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(len(reads)+writes)), "ns/req")
		})
	}
}
