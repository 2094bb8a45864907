package tracker

import (
	"testing"

	"autorfm/internal/rng"
)

// Per-tracker micro-benchmarks over the three activation regimes the flat
// tables distinguish: hits (row already tracked — one index probe plus a
// list move), misses into a non-full table (slot insert), and misses into a
// full table (spillover eviction, the regime the map implementation paid a
// full-table sweep for).

func BenchmarkMithrilOnActivationHit(b *testing.B) {
	m := NewMithril(1024)
	for i := 0; i < 1024; i++ {
		m.OnActivation(uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnActivation(uint32(i & 1023))
	}
}

func BenchmarkMithrilOnActivationMiss(b *testing.B) {
	m := NewMithril(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reset amortizes to keep the table non-full so every activation
		// takes the pure miss path.
		if i&0xffff == 0xffff {
			b.StopTimer()
			m.Reset()
			b.StartTimer()
		}
		m.OnActivation(uint32(i))
	}
}

func BenchmarkMithrilOnActivationEvict(b *testing.B) {
	m := NewMithril(1024)
	for i := 0; i < 1024; i++ {
		m.OnActivation(uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Unique rows against a full table: every activation raises the
		// spillover floor and evicts.
		m.OnActivation(uint32(i) | 1<<24)
	}
}

func BenchmarkMithrilSelect(b *testing.B) {
	m := NewMithril(1024)
	for i := 0; i < 4096; i++ {
		m.OnActivation(uint32(i & 1023))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SelectForMitigation()
	}
}

// BenchmarkMithrilSelectSkewed is BenchmarkMithrilSelect with distinct
// counts: a full 1024-entry table under a uniform stream over 3× as many
// rows, one selection per four activations — the fig18 audit loop, where
// each selection's maximum sits on a short list above a long tail. One op
// is one selection plus its four activations.
func BenchmarkMithrilSelectSkewed(b *testing.B) {
	m := NewMithril(1024)
	r := rng.New(1)
	window := func() {
		for j := 0; j < 4; j++ {
			m.OnActivation(uint32(r.Intn(3072)) * 4)
		}
		m.SelectForMitigation()
	}
	for i := 0; i < 1<<16; i++ {
		window()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
	}
}

func BenchmarkGrapheneOnActivationEvict(b *testing.B) {
	g := NewGraphene(1024, 1<<40)
	for i := 0; i < 1024; i++ {
		g.OnActivation(uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.OnActivation(uint32(i) | 1<<24)
	}
}

func BenchmarkTWiCeOnActivationHit(b *testing.B) {
	tw := NewTWiCe(4096)
	for i := 0; i < 1024; i++ {
		tw.OnActivation(uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.OnActivation(uint32(i & 1023))
	}
}

func BenchmarkTWiCeOnREF(b *testing.B) {
	tw := NewTWiCe(1 << 30) // threshold high enough that nothing prunes
	for i := 0; i < 1024; i++ {
		tw.OnActivation(uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.OnREF()
	}
}

// Steady-state allocation guards: the per-activation and per-mitigation
// paths of every tracker must not touch the heap once their tables have
// reached capacity. A regression here reintroduces GC pressure multiplied
// by hundreds of millions of activations per sweep.
func TestTrackerZeroAllocs(t *testing.T) {
	r := rng.New(7)
	trackers := []Tracker{
		NewMINT(4, false, r),
		NewPrIDE(4, 4, r),
		NewPARFM(64, r),
		NewMithril(256),
		NewGraphene(256, 64),
		NewTWiCe(4096),
	}
	for _, trk := range trackers {
		// Warm past every growth path: fill the table, overflow Graphene's
		// queue ring and membership set, then run the mixed steady state.
		for i := 0; i < 4096; i++ {
			trk.OnActivation(uint32(i % 512))
			if i%64 == 0 {
				trk.SelectForMitigation()
			}
		}
		i := uint32(0)
		if avg := testing.AllocsPerRun(2000, func() {
			trk.OnActivation(i % 512)
			i++
			if i%64 == 0 {
				trk.SelectForMitigation()
			}
		}); avg != 0 {
			t.Errorf("%s: %v allocs per steady-state activation, want 0", trk.Name(), avg)
		}
		if ra, ok := trk.(REFAware); ok {
			if avg := testing.AllocsPerRun(200, ra.OnREF); avg != 0 {
				t.Errorf("%s: %v allocs per OnREF, want 0", trk.Name(), avg)
			}
		}
	}
}

// BenchmarkMithrilOnActivationEvictMapRef is the pre-rewrite map
// implementation (reference_test.go) on the same eviction-heavy stream as
// BenchmarkMithrilOnActivationEvict: every miss pays the full-table
// spillover sweep the flat table's intrusive eviction lists eliminate.
func BenchmarkMithrilOnActivationEvictMapRef(b *testing.B) {
	m := newRefMithril(1024)
	for i := 0; i < 1024; i++ {
		m.OnActivation(uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.OnActivation(uint32(i) | 1<<24)
	}
}
