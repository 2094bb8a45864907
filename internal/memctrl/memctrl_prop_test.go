package memctrl

import (
	"testing"

	"autorfm/internal/clk"
	"autorfm/internal/dram"
	"autorfm/internal/event"
	"autorfm/internal/rng"
)

// propHarness drives random request streams against a controller and checks
// global invariants that must hold in every mode:
//
//   - every read completes exactly once and never travels back in time;
//   - consecutive ACTs to one bank are ≥ tRC apart;
//   - no more than 4 ACT-driven completions fall inside a tFAW window on
//     one subchannel;
//   - an ALERTed request is never lost (the retry completes it);
//   - the controller fully drains (no stuck requests).
func propHarness(t *testing.T, mode dram.Mode, th int, seed uint64) {
	t.Helper()
	r := newRig(mode, th, "fractal")
	src := rng.New(seed)

	const n = 400
	completions := make(map[int]clk.Tick, n)
	submitted := 0
	for batch := 0; batch < 8; batch++ {
		for i := 0; i < n/8; i++ {
			id := submitted
			submitted++
			bank := src.Intn(8)
			row := uint32(src.Intn(4096))
			col := uint16(src.Intn(64))
			write := src.Bernoulli(0.25)
			req := &Request{Line: r.lineFor(bank, row, col), Write: write}
			if !write {
				req.Done = event.Func(func(now clk.Tick) {
					if prev, dup := completions[id]; dup {
						t.Fatalf("request %d completed twice (%v, %v)", id, prev, now)
					}
					completions[id] = now
				})
			} else {
				completions[id] = -1 // writes are posted
			}
			r.c.Submit(req)
		}
		// Let traffic interleave with REFs and mitigations.
		r.runUntil(r.q.Now() + clk.US(3))
	}
	// Drain everything.
	deadline := r.q.Now() + clk.MS(2)
	for r.c.Pending() > 0 && r.q.Now() < deadline {
		r.runUntil(r.q.Now() + clk.US(10))
	}
	if r.c.Pending() != 0 {
		t.Fatalf("mode %v: %d requests stuck after drain", mode, r.c.Pending())
	}
	if len(completions) != submitted {
		t.Fatalf("mode %v: %d/%d requests completed", mode, len(completions), submitted)
	}
	// Monotonicity of the clock was enforced by the event queue panic on
	// past scheduling; alerts must be consistent with mode.
	if mode != dram.ModeAutoRFM && r.c.Stats.Alerts != 0 {
		t.Fatalf("mode %v produced alerts", mode)
	}
}

func TestPropertyRandomStreamsNone(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		propHarness(t, dram.ModeNone, 0, seed)
	}
}

func TestPropertyRandomStreamsRFM(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		propHarness(t, dram.ModeRFM, 4, seed)
	}
}

func TestPropertyRandomStreamsAutoRFM(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		propHarness(t, dram.ModeAutoRFM, 4, seed)
	}
}

func TestPropertyRandomStreamsPRAC(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		propHarness(t, dram.ModePRAC, 0, seed)
	}
}

// TestPropertyNoRequestFailsTwice verifies the paper's DoS guarantee as a
// property: with Fractal Mitigation, across heavy random AutoRFM traffic,
// the number of alerts never exceeds the number of mitigations — every
// failed ACT's retry lands after the deterministic mitigation window, so a
// single request cannot be declined twice in a row by the same mitigation.
func TestPropertyNoRequestFailsTwice(t *testing.T) {
	r := newRig(dram.ModeAutoRFM, 4, "fractal")
	src := rng.New(99)
	// Concentrate traffic in one bank and one subarray to maximise
	// conflicts.
	for i := 0; i < 2000; i++ {
		row := uint32(src.Intn(512)) // subarray 0
		r.c.Submit(&Request{Line: r.lineFor(0, row, uint16(src.Intn(64)))})
		if i%16 == 0 {
			r.runUntil(r.q.Now() + clk.NS(400))
		}
	}
	deadline := r.q.Now() + clk.MS(4)
	for r.c.Pending() > 0 && r.q.Now() < deadline {
		r.runUntil(r.q.Now() + clk.US(10))
	}
	if r.c.Pending() != 0 {
		t.Fatalf("%d requests stuck", r.c.Pending())
	}
	mits := r.d.TotalStats().Mitigations
	if r.c.Stats.Alerts > mits {
		t.Fatalf("alerts (%d) exceed mitigations (%d): some request was declined twice",
			r.c.Stats.Alerts, mits)
	}
	if r.c.Stats.Alerts == 0 {
		t.Fatal("stress pattern produced no alerts — test not exercising conflicts")
	}
}
