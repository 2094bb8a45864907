package tracker

import (
	"fmt"
	"testing"

	"autorfm/internal/rng"
)

// exercise drives tr with a random mix of activations over a few hot rows,
// mitigations and REFs, and returns what it observed: every selection,
// the table occupancy after each, and the name.
func exercise(tr Tracker, seed uint64, ops int) string {
	r := rng.New(seed)
	out := tr.Name()
	for i := 0; i < ops; i++ {
		switch n := r.Intn(16); {
		case n == 0:
			out += fmt.Sprintf(" %v", tr.SelectForMitigation())
			if ts, ok := tr.(TableStats); ok {
				l, b, s := ts.TableStats()
				out += fmt.Sprintf("/%d,%d,%d", l, b, s)
			}
		case n == 1:
			if ra, ok := tr.(REFAware); ok {
				ra.OnREF()
			}
		default:
			tr.OnActivation(uint32(r.Intn(24)))
		}
	}
	return out
}

// TestRegistryReuseMatchesFresh pins Env.Prev: every built-in factory
// rebuilds a used tracker of its own type in place, keeping the tables it
// grew, without allocating, into exactly the state and PRNG draws of a
// fresh build; a Prev of another type is left alone.
func TestRegistryReuseMatchesFresh(t *testing.T) {
	specs := []string{"mint", "mint(recursive=true)", "pride", "parfm", "para",
		"mithril(entries=8)", "graphene(entries=8, threshold=6)", "twice(threshold=40)"}
	for i, spec := range specs {
		build, err := FromSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		used, err := build(Env{TH: 4, R: rng.New(1)})
		if err != nil {
			t.Fatal(err)
		}
		exercise(used, 2, 4000)
		scratchR := rng.New(9)
		if allocs := testing.AllocsPerRun(1, func() {
			build(Env{TH: 4, R: scratchR, Prev: used})
		}); allocs != 0 {
			t.Errorf("%s: rebuilding Prev allocates %.0f objects, want 0", spec, allocs)
		}
		reusedR, freshR := rng.New(3), rng.New(3)
		reused, err := build(Env{TH: 4, R: reusedR, Prev: used})
		if err != nil {
			t.Fatal(err)
		}
		if reused != used {
			t.Errorf("%s: the factory allocated instead of rebuilding Prev", spec)
		}
		fresh, err := build(Env{TH: 4, R: freshR})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := exercise(reused, 4, 4000), exercise(fresh, 4, 4000); got != want {
			t.Errorf("%s: rebuilt tracker diverges from a fresh one:\n got %.200s\nwant %.200s", spec, got, want)
		}
		if reusedR.Uint64() != freshR.Uint64() {
			t.Errorf("%s: rebuilt and fresh trackers drew differently from their PRNGs", spec)
		}

		other, err := FromSpec(specs[(i+2)%len(specs)])
		if err != nil {
			t.Fatal(err)
		}
		if o, err := other(Env{TH: 4, R: rng.New(5), Prev: used}); err != nil || o == Tracker(used) {
			t.Errorf("%s: a factory of another type rebuilt it (err %v)", spec, err)
		}
	}
}
