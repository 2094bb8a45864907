package mitigation_test

import (
	"slices"
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

// TestFromSpecEnvReusesPrev pins mitigation.Env.Prev through the per-bank
// hook dram.Resolve builds: each built-in policy rebuilt over a used policy
// of its own type is exactly a fresh one (same victims and PRNG draws,
// Fractal's distance counts cleared) and builds without allocating; a used
// policy of another type is left alone.
func TestFromSpecEnvReusesPrev(t *testing.T) {
	const rows = 128 * 1024
	sel := func(row uint32, level int) tracker.Selection {
		return tracker.Selection{Row: row, Level: level, OK: true}
	}
	for _, name := range mitigation.Names() {
		build, _, err := dram.Resolve(name, "mint", 4)
		if err != nil {
			t.Fatal(err)
		}
		used := build(0, rng.New(1), nil)
		for i := 0; i < 100; i++ {
			used.Victims(sel(5000, 1+i%3), rows)
		}
		reusedR, freshR := rng.New(2), rng.New(2)
		reused := build(0, reusedR, used)
		fresh := build(0, freshR, nil)
		if f, ok := reused.(*mitigation.Fractal); ok && (f != used || f.DistanceCounts != [19]uint64{}) {
			t.Errorf("%s: not rebuilt in place, or its distance counts survived", name)
		}
		for i := 0; i < 100; i++ {
			s := sel(uint32(i), 1+i%3)
			if got, want := reused.Victims(s, rows), fresh.Victims(s, rows); !slices.Equal(got, want) {
				t.Fatalf("%s: rebuilt policy refreshes %v, fresh %v", name, got, want)
			}
		}
		if reusedR.Uint64() != freshR.Uint64() {
			t.Errorf("%s: rebuilt and fresh policies drew differently", name)
		}
		r := rng.New(3)
		if allocs := testing.AllocsPerRun(10, func() { used = build(0, r, used) }); allocs != 0 {
			t.Errorf("%s: rebuilding over Prev allocates %.1f objects, want 0", name, allocs)
		}
	}
	frac, _ := mitigation.ByName("fractal", rng.New(4))
	build, _, _ := dram.Resolve("baseline", "mint", 4)
	if p := build(0, rng.New(4), frac); p == frac {
		t.Error("the baseline factory rebuilt a fractal policy")
	}
}
