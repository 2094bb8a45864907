package dram

import (
	"reflect"
	"testing"

	"autorfm/internal/arena"
	"autorfm/internal/clk"
	"autorfm/internal/mapping"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

func autoCfg(th int) Config {
	return Config{
		Geo:    mapping.Default(),
		Timing: clk.DDR5(),
		Mode:   ModeAutoRFM,
		TH:     th,
		Seed:   1,
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{ModeNone: "none", ModeRFM: "rfm", ModeAutoRFM: "autorfm", ModePRAC: "prac"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestActivateOutOfRangePanics(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	defer func() {
		if recover() == nil {
			t.Error("Activate of a row >= RowsPerBank did not panic")
		}
	}()
	b.Activate(0, uint32(d.Cfg.Geo.RowsPerBank))
}

func TestAutoRFMWindowCloses(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	now := clk.Tick(0)
	closes := 0
	for i := 0; i < 40; i++ {
		res := b.Activate(now, uint32(i*1000))
		if res.Alert {
			t.Fatalf("unexpected alert on act %d (no SAUM active)", i)
		}
		if res.WindowClosed {
			closes++
			b.StartPendingMitigation(now + clk.DDR5().TRAS)
			// Advance past the mitigation so the next window's ACTs
			// (same subarray in this synthetic stream) don't conflict.
			tm := clk.DDR5()
			now += tm.MitigationTime(4)
		}
		now += clk.DDR5().TRC
	}
	if closes != 10 {
		t.Fatalf("window closed %d times over 40 ACTs at TH=4, want 10", closes)
	}
	if b.Stats.Mitigations != 10 {
		t.Fatalf("Mitigations = %d, want 10", b.Stats.Mitigations)
	}
	if b.Stats.VictimRefreshes != 40 {
		t.Fatalf("VictimRefreshes = %d, want 40 (4 per mitigation)", b.Stats.VictimRefreshes)
	}
}

func TestSAUMConflictAlerts(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	g := d.Cfg.Geo
	tm := clk.DDR5()
	// Close one window with rows all in subarray 0 so the SAUM is known.
	now := clk.Tick(0)
	for i := 0; i < 4; i++ {
		b.Activate(now, uint32(i)) // rows 0..3 → subarray 0
		now += tm.TRC
	}
	pt := now + tm.TRAS
	b.StartPendingMitigation(pt)
	sa, until := b.SAUM()
	if sa != 0 {
		t.Fatalf("SAUM = %d, want 0", sa)
	}
	if want := pt + tm.MitigationTime(4); until != want {
		t.Fatalf("SAUM until %v, want %v", until, want)
	}
	// An ACT to subarray 0 during the mitigation must ALERT and not count.
	actsBefore := b.Stats.Acts
	res := b.Activate(pt+clk.NS(10), 100) // row 100 → subarray 0
	if !res.Alert {
		t.Fatal("conflicting ACT not alerted")
	}
	if b.Stats.Acts != actsBefore {
		t.Fatal("failed ACT was counted as successful")
	}
	if b.Stats.Alerts != 1 {
		t.Fatalf("Alerts = %d, want 1", b.Stats.Alerts)
	}
	// An ACT to another subarray proceeds normally.
	if res := b.Activate(pt+clk.NS(20), uint32(g.SubarrayRows+5)); res.Alert {
		t.Fatal("non-conflicting ACT alerted")
	}
	// After the mitigation time the subarray is free again (the paper's
	// guaranteed-retry property).
	if res := b.Activate(until, 100); res.Alert {
		t.Fatal("retry after mitigation time alerted — DoS guarantee violated")
	}
}

func TestSAUMTracksAggressorSubarray(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	tm := clk.DDR5()
	now := clk.Tick(0)
	// All four window ACTs in subarray 7.
	base := uint32(7 * d.Cfg.Geo.SubarrayRows)
	for i := 0; i < 4; i++ {
		b.Activate(now, base+uint32(i))
		now += tm.TRC
	}
	b.StartPendingMitigation(now)
	if sa, _ := b.SAUM(); sa != 7 {
		t.Fatalf("SAUM = %d, want 7", sa)
	}
}

func TestRFMModeNoSAUM(t *testing.T) {
	cfg := autoCfg(4)
	cfg.Mode = ModeRFM
	d := NewDevice(cfg)
	b := d.Banks[0]
	for i := 0; i < 4; i++ {
		res := b.Activate(clk.Tick(i)*clk.DDR5().TRC, uint32(i))
		if res.WindowClosed || res.Alert {
			t.Fatal("RFM mode must not close AutoRFM windows or alert")
		}
	}
	b.ExecuteRFM()
	if b.Stats.Mitigations != 1 {
		t.Fatalf("Mitigations = %d after RFM, want 1", b.Stats.Mitigations)
	}
	if b.SAUMActive(clk.NS(1)) {
		t.Fatal("RFM mode set a SAUM")
	}
}

func TestREFMitigatesInRFMMode(t *testing.T) {
	cfg := autoCfg(8)
	cfg.Mode = ModeRFM
	d := NewDevice(cfg)
	b := d.Banks[0]
	for i := 0; i < 8; i++ {
		b.Activate(0, uint32(i))
	}
	b.ExecuteREF(0)
	if b.Stats.Mitigations != 1 {
		t.Fatalf("REF did not mitigate in RFM mode: %d", b.Stats.Mitigations)
	}

	// In AutoRFM mode REF performs no tracker mitigation.
	d2 := NewDevice(autoCfg(8))
	b2 := d2.Banks[0]
	for i := 0; i < 4; i++ {
		b2.Activate(0, uint32(i))
	}
	b2.ExecuteREF(0)
	if b2.Stats.Mitigations != 0 {
		t.Fatal("REF mitigated in AutoRFM mode")
	}
}

// TestPRACCounterSaturates pins the 16-bit counters: at the largest ETh
// they reach, ABO fires on the ETh-th activation as with an unbounded
// count, and a row activated past it stays at PRACMaxETh instead of
// wrapping to zero.
func TestPRACCounterSaturates(t *testing.T) {
	cfg := autoCfg(0)
	cfg.Mode = ModePRAC
	cfg.PRACETh = PRACMaxETh
	b := NewDevice(cfg).Banks[0]
	for i := 1; i <= PRACMaxETh+1000; i++ {
		res := b.Activate(clk.Tick(i), 500)
		if res.ABO != (i == PRACMaxETh) {
			t.Fatalf("activation %d: ABO = %v, want it on activation %d only", i, res.ABO, PRACMaxETh)
		}
	}
	if b.pracCounts[500] != PRACMaxETh || b.Stats.ABOAlerts != 1 {
		t.Fatalf("counter %d with %d alerts after %d activations; want %d and 1",
			b.pracCounts[500], b.Stats.ABOAlerts, PRACMaxETh+1000, PRACMaxETh)
	}
}

func TestPRACCountersAndABO(t *testing.T) {
	cfg := autoCfg(0)
	cfg.Mode = ModePRAC
	cfg.PRACETh = 10
	d := NewDevice(cfg)
	b := d.Banks[0]
	var abo bool
	for i := 0; i < 10; i++ {
		res := b.Activate(clk.Tick(i), 500)
		abo = abo || res.ABO
	}
	if !abo {
		t.Fatal("no ABO after ETH activations of one row")
	}
	if b.Stats.ABOAlerts != 1 {
		t.Fatalf("ABOAlerts = %d, want 1", b.Stats.ABOAlerts)
	}
	b.ExecutePRACBackoff()
	if b.Stats.Mitigations != 1 {
		t.Fatal("back-off did not mitigate")
	}
	if b.pracCounts[500] != 0 {
		t.Fatal("counter not reset by back-off")
	}
	// Counter restarts; next ETH activations raise ABO again.
	abo = false
	for i := 0; i < 10; i++ {
		res := b.Activate(clk.Tick(100+i), 500)
		abo = abo || res.ABO
	}
	if !abo {
		t.Fatal("no second ABO after counter reset")
	}
}

func TestRecursivePolicyGetsReservedSlotTracker(t *testing.T) {
	cfg := autoCfg(4)
	cfg.NewPolicy = func(bank int, r *rng.Source, _ mitigation.Policy) mitigation.Policy {
		return mitigation.NewRecursive()
	}
	d := NewDevice(cfg)
	b := d.Banks[0]
	m, ok := b.Tracker().(*tracker.MINT)
	if !ok {
		t.Fatal("default tracker is not MINT")
	}
	if m.Name() != "mint-4+rm" {
		t.Fatalf("tracker = %s, want mint-4+rm (reserved transitive slot)", m.Name())
	}
}

func TestDefaultFractalNeverTransitiveMitigations(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	tm := clk.DDR5()
	now := clk.Tick(0)
	for i := 0; i < 4000; i++ {
		res := b.Activate(now, uint32(i%8))
		now += tm.TRC
		if res.WindowClosed {
			b.StartPendingMitigation(now)
			now += tm.MitigationTime(4)
		}
	}
	if b.Stats.TransitiveMits != 0 {
		t.Fatalf("fractal produced %d transitive mitigations", b.Stats.TransitiveMits)
	}
	if b.Stats.Mitigations != 1000 {
		t.Fatalf("Mitigations = %d, want 1000", b.Stats.Mitigations)
	}
}

// TestSAUMBusyBounded verifies the deterministic-latency property: with
// Fractal Mitigation the SAUM busy period is exactly NumRefreshes × tRC.
func TestSAUMBusyBounded(t *testing.T) {
	d := NewDevice(autoCfg(4))
	b := d.Banks[0]
	tm := clk.DDR5()
	now := clk.Tick(0)
	for i := 0; i < 400; i++ {
		res := b.Activate(now, uint32(i))
		now += tm.TRC
		if res.WindowClosed {
			b.StartPendingMitigation(now)
			_, until := b.SAUM()
			if until-now != tm.MitigationTime(4) {
				t.Fatalf("SAUM busy %v, want %v", until-now, tm.MitigationTime(4))
			}
			now += tm.MitigationTime(4) // let the mitigation drain
		}
	}
	wantBusy := clk.Tick(100) * tm.MitigationTime(4)
	if b.Stats.SAUMBusy != wantBusy {
		t.Fatalf("total SAUM busy %v, want %v", b.Stats.SAUMBusy, wantBusy)
	}
}

func TestTotalStats(t *testing.T) {
	d := NewDevice(autoCfg(4))
	d.Banks[0].Activate(0, 1)
	d.Banks[1].Activate(0, 2)
	d.Banks[63].Activate(0, 3)
	if got := d.TotalStats().Acts; got != 3 {
		t.Fatalf("TotalStats.Acts = %d, want 3", got)
	}
}

func TestMaxDamagePanicsWithoutAudit(t *testing.T) {
	d := NewDevice(autoCfg(4))
	defer func() {
		if recover() == nil {
			t.Fatal("MaxDamage without audit did not panic")
		}
	}()
	d.MaxDamage()
}

// TestREFAwareTrackerReceivesOnREF: REF-aware trackers (TWiCe) are aged by
// every REF command the bank executes.
func TestREFAwareTrackerReceivesOnREF(t *testing.T) {
	cfg := autoCfg(4)
	cfg.NewTracker = func(tracker.Env) tracker.Tracker { return tracker.NewTWiCe(1000) }
	d := NewDevice(cfg)
	b := d.Banks[0]
	tw := b.Tracker().(*tracker.TWiCe)
	// Insert a slow row, then run REFs: pruning must evict it.
	b.Activate(0, 77)
	if tw.TableSize() != 1 {
		t.Fatalf("TableSize = %d", tw.TableSize())
	}
	for i := uint64(1); i <= 100; i++ {
		b.ExecuteREF(i)
	}
	if tw.TableSize() != 0 {
		t.Fatalf("slow row not pruned after 100 REFs (size %d)", tw.TableSize())
	}
}

// TestMitigationZeroAllocs guards the device's steady-state update path:
// activations, AutoRFM window mitigations (tracker selection, the policy's
// victims appended into the bank's scratch buffer, audit-ledger records)
// and REFs allocate nothing once the device is built.
func TestMitigationZeroAllocs(t *testing.T) {
	cfg := autoCfg(4)
	cfg.Audit, cfg.AuditThreshold = true, 1<<20
	d := NewDevice(cfg)
	b := d.Banks[0]
	tm := clk.DDR5()
	now := clk.Tick(0)
	var i uint32
	var ref uint64
	step := func() {
		for n := 0; n < 64; n++ {
			res := b.Activate(now, 1000+(i%16)*4)
			i++
			if res.WindowClosed {
				b.StartPendingMitigation(now + tm.TRAS)
				now += tm.MitigationTime(4)
			}
			now += tm.TRC
		}
		ref++
		b.ExecuteREF(ref)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("device update path allocates %.1f objects per 64 ACTs, want 0", allocs)
	}
	if b.Stats.Mitigations == 0 {
		t.Fatal("no mitigations ran")
	}
}

// TestResetAcrossModesMatchesFresh pins device reuse across modes. A PRAC
// run raises counters in every bank — past the raised-row list in bank 0,
// within it elsewhere — and the device Resets to RFM, mitigates there, and
// Resets back to PRAC. Every counter must be zero at each step, and the
// reused device must match NewDevice bank for bank: the same counters, and
// the same outcome and stats under the same activation stream.
func TestResetAcrossModesMatchesFresh(t *testing.T) {
	prac := autoCfg(4)
	prac.Mode, prac.PRACETh = ModePRAC, 8
	rfm := autoCfg(4)
	rfm.Mode = ModeRFM
	rows := prac.Geo.RowsPerBank

	drive := func(d *Device, seed uint64) []ActResult {
		r := rng.New(seed)
		var out []ActResult
		for i := 0; i < 20_000; i++ {
			b := d.Banks[r.Intn(len(d.Banks))]
			res := b.Activate(clk.Tick(i), uint32(r.Intn(rows)))
			if res.ABO {
				b.ExecutePRACBackoff()
			}
			if d.Cfg.Mode == ModeRFM && i%16 == 0 {
				b.ExecuteRFM()
			}
			out = append(out, res)
		}
		return out
	}
	allZero := func(d *Device, step string) {
		t.Helper()
		for _, b := range d.Banks {
			for row, n := range b.pracCounts {
				if n != 0 {
					t.Fatalf("%s: bank %d row %d counter = %d, want 0", step, b.ID, row, n)
				}
			}
		}
	}

	d := NewDevice(prac)
	for row := 0; row < rows; row += 16 {
		d.Banks[0].Activate(clk.Tick(row), uint32(row)) // overflows bank 0's list
	}
	drive(d, 1)
	if !d.Banks[0].pracWipe || d.Banks[1].pracWipe || len(d.Banks[1].pracRaised) == 0 {
		t.Fatal("setup did not cover both the listed and the whole-array clear")
	}
	if !d.Reset(rfm) {
		t.Fatal("Reset refused a mode change")
	}
	allZero(d, "PRAC→RFM")
	drive(d, 2)
	if d.TotalStats().Mitigations == 0 {
		t.Fatal("RFM run did not mitigate")
	}
	allZero(d, "RFM run")
	if !d.Reset(prac) {
		t.Fatal("Reset refused a mode change")
	}
	allZero(d, "RFM→PRAC")

	fresh := NewDevice(prac)
	for i, b := range d.Banks {
		if len(b.pracCounts) != len(fresh.Banks[i].pracCounts) || len(b.pracRaised) != 0 {
			t.Fatalf("bank %d: PRAC arrays differ from a fresh device", i)
		}
	}
	if got, want := drive(d, 3), drive(fresh, 3); !reflect.DeepEqual(got, want) {
		t.Fatal("reused device's activation outcomes diverge from a fresh device")
	}
	for i, b := range d.Banks {
		if b.Stats != fresh.Banks[i].Stats || !reflect.DeepEqual(b.pracCounts, fresh.Banks[i].pracCounts) {
			t.Fatalf("bank %d: reused device diverges from a fresh device", i)
		}
	}
}

// BenchmarkBankActivate times one demand activation of a bank in RFM mode,
// where the tracker observes every ACT, and in PRAC mode, where the ACT
// bumps its row's counter and raises ABO at ETH; the back-off ABO asks for
// runs in the loop, as the controller would run it. Rows cycle through a
// fixed random table of 4096.
func BenchmarkBankActivate(b *testing.B) {
	for _, mode := range []Mode{ModeRFM, ModePRAC} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := autoCfg(4)
			cfg.Mode, cfg.PRACETh = mode, 64
			bank := NewDevice(cfg).Banks[0]
			r := rng.New(1)
			rows := make([]uint32, 4096)
			for i := range rows {
				rows[i] = uint32(r.Intn(cfg.Geo.RowsPerBank))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := bank.Activate(clk.Tick(i), rows[i%len(rows)]); res.ABO {
					bank.ExecutePRACBackoff()
				}
			}
		})
	}
}

// TestDeviceWarmResetAllocs pins what a warm Reset allocates: with an arena
// sized by an earlier Reset, the PRNGs, tracker tables and victim buffers
// are re-carved from its slabs, and the hooks Resolve builds from the
// registry rebuild each bank's previous tracker and policy in place, so
// nothing is allocated. Hooks that ignore prev still allocate one tracker
// and one policy per bank.
func TestDeviceWarmResetAllocs(t *testing.T) {
	registry := autoCfg(4)
	registry.Arena = &arena.Arena{}
	var err error
	registry.NewPolicy, registry.NewTracker, err = Resolve("fractal", "mint", 4)
	if err != nil {
		t.Fatal(err)
	}
	fresh := registry
	fresh.NewTracker = func(env tracker.Env) tracker.Tracker { return tracker.NewMINT(4, false, env.R) }
	fresh.NewPolicy = func(bank int, r *rng.Source, _ mitigation.Policy) mitigation.Policy { return mitigation.NewFractal(r) }
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"registry", registry, 0},
		{"hooks ignoring prev", fresh, 2 * registry.Geo.Banks},
	} {
		d := NewDevice(tc.cfg)
		if !d.Reset(tc.cfg) {
			t.Fatal("Reset refused its own config")
		}
		allocs := testing.AllocsPerRun(10, func() { d.Reset(tc.cfg) })
		if allocs != float64(tc.want) {
			t.Errorf("%s: warm Reset allocates %.0f objects, want %d", tc.name, allocs, tc.want)
		}
	}
}
