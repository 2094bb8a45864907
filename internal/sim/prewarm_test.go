package sim

import (
	"testing"

	"autorfm/internal/cache"
	"autorfm/internal/clk"
	"autorfm/internal/event"
	"autorfm/internal/workload"
)

// newWarmTarget builds a cache for prewarm to fill. Warming generates no
// DRAM traffic by construction, so no memory controller is attached.
func newWarmTarget(t *testing.T, llcCfg cache.Config) *cache.Cache {
	t.Helper()
	return cache.New(llcCfg, nil, &event.Queue{})
}

// warmKeyFor is the pre-warm key of a small two-core run on llcCfg.
func warmKeyFor(llcCfg cache.Config) warmKey {
	cfg := Config{Workload: workload.Profiles()[0], Cores: 2, Seed: 7}
	return newWarmKey(&cfg, llcCfg)
}

// TestPrewarmHonorsConfiguredCache pins the fix for the shadowed llcCfg in
// RunCtx's pre-warm block: prewarm used to re-read cache.DefaultConfig()
// instead of the configuration the cache was actually built with, so any
// non-default LLC geometry was warmed with the wrong line count. The warmed
// count must track the passed config, and the cache must end up fully
// occupied.
func TestPrewarmHonorsConfiguredCache(t *testing.T) {
	small := cache.Config{
		SizeBytes:  1 << 20, // 16384 lines — 1/8 of DefaultConfig
		Ways:       16,
		LineBytes:  64,
		HitLatency: clk.NS(12),
		MissExtra:  clk.NS(35),
	}
	llc := newWarmTarget(t, small)
	wantLines := small.SizeBytes / small.LineBytes

	warmed := prewarm(llc, warmKeyFor(small), &prewarmScratch{})
	if warmed != wantLines {
		t.Fatalf("prewarm warmed %d lines for a %d-line cache (DefaultConfig would be %d)",
			warmed, wantLines, cache.DefaultConfig().SizeBytes/cache.DefaultConfig().LineBytes)
	}
	// Warming exactly capacity lines drawn from a footprint much larger
	// than the cache fills essentially every slot; duplicates or set skew
	// can leave a few ways cold, but occupancy far below capacity means the
	// warm loop sized itself from the wrong config.
	if occ := llc.Occupancy(); occ < wantLines*9/10 {
		t.Fatalf("occupancy after prewarm = %d of %d lines", occ, wantLines)
	}
}

// TestPrewarmPrefetchDegreeInvariant checks the user-visible symptom from
// the issue directly: a non-default prefetch degree goes through the same
// pre-warm as the default configuration — same line count, same occupancy —
// since the prefetcher plays no role in warming.
func TestPrewarmPrefetchDegreeInvariant(t *testing.T) {
	defCfg := cache.DefaultConfig()
	pfCfg := cache.DefaultConfig()
	pfCfg.PrefetchDegree = 4 // non-default; RunCtx sets this for cfg.PrefetchDegree > 0

	defLLC := newWarmTarget(t, defCfg)
	pfLLC := newWarmTarget(t, pfCfg)

	warmedDef := prewarm(defLLC, warmKeyFor(defCfg), &prewarmScratch{})
	warmedPf := prewarm(pfLLC, warmKeyFor(pfCfg), &prewarmScratch{})
	if warmedDef != warmedPf {
		t.Fatalf("warmed %d lines with default prefetch degree, %d with degree 4", warmedDef, warmedPf)
	}
	if a, b := defLLC.Occupancy(), pfLLC.Occupancy(); a != b {
		t.Fatalf("occupancy diverged with prefetch degree: %d (default) vs %d (degree 4)", a, b)
	}
}
