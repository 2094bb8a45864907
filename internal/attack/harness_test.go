package attack

import (
	"runtime"
	"testing"

	"autorfm/internal/rng"
)

// refFuzzedRows is the weighted walk Fuzzed used before its lookup table,
// kept as the reference: each activation subtracts per-row weights from a
// uniform draw until it goes negative.
func refFuzzedRows(base uint32, rows int, seed uint64, n int) []uint32 {
	state := rng.New(seed)
	weights := make([]int, rows)
	total := 0
	redraw := func() {
		total = 0
		for i := range weights {
			weights[i] = 1 + state.Intn(8)
			total += weights[i]
		}
	}
	redraw()
	out := make([]uint32, n)
	for i := range out {
		if i%4096 == 0 {
			redraw()
		}
		pick := state.Intn(total)
		for j, w := range weights {
			pick -= w
			if pick < 0 {
				out[i] = base + uint32(j)*4
				break
			}
		}
	}
	return out
}

// TestFuzzedMatchesWeightedWalk checks that the lookup-table Fuzzed yields
// the same row sequence as the weighted walk across three redraw rounds.
func TestFuzzedMatchesWeightedWalk(t *testing.T) {
	const n = 3*4096 + 100
	for _, rows := range []int{1, 6, 64} {
		for _, seed := range []uint64{0, 1, 2, 77, 1 << 40} {
			p := Fuzzed(110_000, rows, seed)
			want := refFuzzedRows(110_000, rows, seed, n)
			for i, w := range want {
				if got := p.Row(uint64(i), nil); got != w {
					t.Fatalf("rows %d seed %d: ACT %d = row %d, weighted walk %d", rows, seed, i, got, w)
				}
			}
		}
	}
}

// TestPatternsRejectBadSizes checks that patterns with a row, pair or decoy
// count below one panic at construction rather than on their first ACT.
func TestPatternsRejectBadSizes(t *testing.T) {
	for name, mk := range map[string]func(){
		"Fuzzed":     func() { Fuzzed(0, 0, 1) },
		"Circular":   func() { Circular(0, 0) },
		"ManySided":  func() { ManySided(0, -1) },
		"DecoyFlood": func() { DecoyFlood(100, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a size below one", name)
				}
			}()
			mk()
		}()
	}
}

// TestRunAllocBound guards Run's setup cost: a 10k-ACT audit builds one
// bank, so it allocates that bank's ledger and tracker and nothing sized by
// the rest of the device.
func TestRunAllocBound(t *testing.T) {
	cfg := Config{TH: 4, Policy: "fractal", Tracker: "mithril", TRHD: 74, Acts: 10_000, Seed: 1}
	MustRun(cfg, Fuzzed(110_000, 64, 1)) // warm the registries
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	MustRun(cfg, Fuzzed(110_000, 64, 1))
	runtime.ReadMemStats(&after)
	if b := after.TotalAlloc - before.TotalAlloc; b >= 2<<20 {
		t.Fatalf("10k-ACT audit allocated %d bytes, want < 2 MiB", b)
	}
}

// BenchmarkAttackRun times one audit per pattern — AutoRFM-4 with MINT and
// Fractal Mitigation at TRH-D 74, as the golden reports run it — and
// reports the cost per attacker ACT.
func BenchmarkAttackRun(b *testing.B) {
	const acts = 100_000
	for _, mk := range []func() Pattern{
		func() Pattern { return HalfDouble(64 * 1024) },
		func() Pattern { return DoubleSided(90_000) },
		func() Pattern { return Circular(100_000, 4) },
		func() Pattern { return Fuzzed(110_000, 64, 1) },
	} {
		b.Run(mk().Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MustRun(Config{TH: 4, Policy: "fractal", TRHD: 74, Acts: acts, Seed: 1}, mk())
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*acts), "ns/act")
		})
	}
}
