package sim

import (
	"fmt"
	"math"
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/workload"
)

// keyRef is the pre-optimization Key implementation, kept verbatim as the
// reference: the strconv-based Key must reproduce its output byte for byte,
// or checkpoints written by older binaries would silently stop verifying.
func keyRef(c Config) string {
	if c.NewStream != nil {
		return ""
	}
	n := c.Normalized()
	return fmt.Sprintf("w=%+v|cores=%d|instr=%d|mode=%d|th=%d|map=%s|pol=%s|trk=%s|eth=%d|retry=%d|raa=%d|pf=%d|seed=%d|fault=%+v",
		n.Workload, n.Cores, n.InstructionsPerCore, n.Mode, n.TH, n.Mapping,
		n.Policy, n.Tracker, n.PRACETh, n.RetryWaitNS, n.RAAMaxFactor,
		n.PrefetchDegree, n.Seed, n.Fault)
}

// keyCases spans every profile, mechanism, and a spread of option and
// fault combinations, plus floats that stress %v's shortest-'g' rendering
// (thirds, exponents, negatives, NaN, ±Inf).
func keyCases() []Config {
	var cases []Config
	for _, p := range workload.Profiles() {
		cases = append(cases, Config{Workload: p})
	}
	base := Config{Workload: workload.Profiles()[0]}
	for mode := 0; mode < 4; mode++ {
		c := base
		c.Mode = dram.Mode(mode)
		cases = append(cases, c)
	}
	opt := base
	opt.Cores = 4
	opt.InstructionsPerCore = 123456789
	opt.TH = 16
	opt.Mapping = "rubix"
	opt.Policy = "recursive"
	opt.Tracker = "pride"
	opt.PRACETh = 32
	opt.RetryWaitNS = 250
	opt.RAAMaxFactor = 2
	opt.PrefetchDegree = -1
	opt.Seed = 0xdeadbeefcafef00d
	cases = append(cases, opt)
	flt := base
	flt.Workload.MemPKI = 1.0 / 3
	flt.Workload.WriteFrac = 1e-21
	flt.Workload.SeqFrac = 123456789.123456789
	flt.Workload.DepFrac = -0.5
	flt.Workload.TargetACTPKI = math.NaN()
	flt.Workload.TargetACTPerTREFI = math.Inf(1)
	cases = append(cases, flt)
	inf := base
	inf.Workload.TargetACTPKI = math.Inf(-1)
	cases = append(cases, inf)
	flty := base
	flty.Fault = fault.Config{
		Seed:                42,
		ActMissProb:         0.001,
		TrackerBitFlipProb:  1e-9,
		DropMitigationProb:  2.0 / 3,
		DelayMitigationProb: 0.25,
		PanicAfterActs:      1000,
		ChaosProb:           0.5,
	}
	cases = append(cases, flty)
	return cases
}

// TestKeyMatchesFmtReference requires the strconv-based Key to be
// byte-identical to the fmt-based reference for every case — the property
// that keeps existing checkpoint files loadable.
func TestKeyMatchesFmtReference(t *testing.T) {
	for i, c := range keyCases() {
		got, want := c.Key(), keyRef(c)
		if got != want {
			t.Fatalf("case %d: Key mismatch\n got: %s\nwant: %s", i, got, want)
		}
	}
}

// TestConfigKeyAllocs pins Key at one allocation, its string, for every
// key case and every Table V profile with long selectors, a 64-bit seed and
// every option set: the buffer it builds the key in must hold them all.
func TestConfigKeyAllocs(t *testing.T) {
	cases := keyCases()
	for _, p := range workload.Profiles() {
		cases = append(cases, Config{Workload: p, Mapping: "page-in-row", Policy: "recursive",
			Tracker: "mithril(entries=2048)", InstructionsPerCore: 1_000_000_000, RetryWaitNS: 1000,
			RAAMaxFactor: 4, PrefetchDegree: -1, Seed: 1<<64 - 1})
	}
	for i, c := range cases {
		if n := len(c.Key()); n > keyBytes {
			t.Errorf("case %d: key is %d bytes, buffer %d", i, n, keyBytes)
		}
		if allocs := testing.AllocsPerRun(20, func() { _ = c.Key() }); allocs != 1 {
			t.Errorf("case %d: Key allocates %.1f objects, want 1", i, allocs)
		}
	}
}

// BenchmarkConfigKey measures the strconv-based Key against the fmt-based
// reference it replaced: one of these runs per runner lookup and per
// checkpoint-line verification.
func BenchmarkConfigKey(b *testing.B) {
	cfg := Config{Workload: workload.Profiles()[0], Mode: 2, TH: 4, Seed: 1}
	b.Run("strconv", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = cfg.Key()
		}
	})
	b.Run("fmt-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = keyRef(cfg)
		}
	})
}
