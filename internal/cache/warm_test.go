package cache

import (
	"reflect"
	"testing"

	"autorfm/internal/event"
	"autorfm/internal/memctrl"
	"autorfm/internal/rng"
)

// wayLine is one resident line of a set.
type wayLine struct {
	line  uint64
	dirty bool
}

// recencyState returns each set's resident lines, most recent first, with
// their dirty bits: all of a set's state its future behavior depends on.
func recencyState(c *Cache) [][]wayLine {
	sets := make([][]wayLine, len(c.sets))
	for s, st := range c.sets {
		for p := 0; p < int(st.n); p++ {
			w := int(st.order >> (4 * p) & 15)
			line := uint64(c.tags[s*c.ways+w])<<c.setShift | uint64(s)
			sets[s] = append(sets[s], wayLine{line: line, dirty: st.dirty>>w&1 != 0})
		}
	}
	return sets
}

// warmState captures everything Warm touches, for byte-level comparison.
func warmState(c *Cache) ([]uint32, []set, bool) {
	tags := append([]uint32(nil), c.tags...)
	sets := append([]set(nil), c.sets...)
	return tags, sets, c.fresh
}

// TestResetMatchesFresh pins the machine-reuse contract for the cache: a
// used-then-Reset cache behaves identically to a new one.
func TestResetMatchesFresh(t *testing.T) {
	used, mc, q := newRig(t, smallCfg())
	for i := uint64(0); i < 3000; i++ {
		used.Access(i%512, i%3 == 0, nil)
	}
	drain(q, mc)
	used.Reset(mc)

	fresh, _, _ := newRig(t, smallCfg())
	uTags, uSets, uFresh := warmState(used)
	fTags, fSets, fFresh := warmState(fresh)
	if !reflect.DeepEqual(uTags, fTags) || !reflect.DeepEqual(uSets, fSets) || uFresh != fFresh {
		t.Fatal("Reset cache arrays differ from a fresh cache")
	}
	if used.Stats != (Stats{}) {
		t.Fatalf("Reset left stats %+v", used.Stats)
	}
	if used.out.n != 0 || used.recentN != 0 {
		t.Fatal("Reset left outstanding-fill or stream-detector state")
	}
	for _, v := range used.recent.slots {
		if v != 0 {
			t.Fatal("Reset left stream-detector set entries")
		}
	}
}

// TestLoadWarmRollbackMatchesFresh is the differential test of the
// rollback: a cache runs on entry A, switches to entry B, and switches back
// to A, and after every such round its arrays and flags must equal a fresh
// cache's LoadWarm of A's saved state. Rounds cover both restore paths (few
// sets marked, and more than an eighth), a Reset wipe of A's working copy,
// a pre-warm of another key over it (a memo miss), and a re-save of A from
// the cache running on its working copy, as the simulator's memo does when
// it evicts the entry the cache runs on.
func TestLoadWarmRollbackMatchesFresh(t *testing.T) {
	r := rng.New(11)
	var plan WarmPlan
	warm := func(c *Cache, mc *memctrl.Controller, n int, span int64) {
		lines := make([]uint64, n)
		dirty := make([]bool, n)
		for i := range lines {
			lines[i] = uint64(r.Int63n(span))
			dirty[i] = r.Bernoulli(0.3)
		}
		c.ResetForWarm(mc)
		c.WarmAll(lines, dirty, &plan)
	}
	run := func(c *Cache, mc *memctrl.Controller, q *event.Queue, n int) {
		for i := 0; i < n; i++ {
			c.Access(uint64(r.Int63n(8192)), r.Bernoulli(0.4), nil)
		}
		drain(q, mc)
	}

	c, mc, q := newRig(t, smallCfg())
	numSets := len(c.sets)
	// a and aRef hold the same saved warm: c runs on a, and aRef is only
	// ever loaded into a fresh reference cache.
	var a, aRef, b, other WarmState
	warm(c, mc, 4000, 6000)
	c.SaveWarm(&a)
	c.SaveWarm(&aRef)
	warm(c, mc, 4000, 6000)
	c.SaveWarm(&b)

	paths := map[string]int{}
	for round := 0; round < 60; round++ {
		c.ResetForWarm(mc)
		c.LoadWarm(&a)
		scenario := round % 5
		switch scenario {
		case 0: // a short job: a handful of sets
			run(c, mc, q, 1+r.Intn(20))
		case 1: // a long job: most sets
			run(c, mc, q, 2000+r.Intn(2000))
		case 2: // a few accesses, then a Reset wipes every set
			run(c, mc, q, 1+r.Intn(20))
			c.Reset(mc)
		case 3: // a miss pre-warms another key over A's working copy
			run(c, mc, q, r.Intn(200))
			warm(c, mc, 4000, 6000)
			c.SaveWarm(&other)
		case 4: // the entry is re-saved from its own working copy
			run(c, mc, q, r.Intn(200))
			warm(c, mc, 4000, 6000)
			c.SaveWarm(&a)
			aRef = WarmState{tags: append([]uint32(nil), a.tags...), sets: append([]set(nil), a.sets...),
				fresh: a.fresh, stale: a.stale}
			if m := a.work.marked(); m != 0 {
				t.Fatalf("round %d: re-saving the state c runs on left %d sets marked", round, m)
			}
			run(c, mc, q, 1+r.Intn(20))
		}
		// B's runs are short, so loading B mostly rolls back B's own copy
		// and leaves A's; a long one now and then makes B's next load a
		// whole copy, which trades A's arrays to B.
		c.ResetForWarm(mc)
		c.LoadWarm(&b)
		if round%7 == 6 {
			run(c, mc, q, 300)
		} else {
			run(c, mc, q, r.Intn(20))
		}

		// A whole copy is due when more than an eighth of A's sets are
		// marked: after a long run, a wipe, a pre-warm over A's copy, or a
		// load of B that took A's arrays.
		m := a.work.marked()
		whole := m > numSets/rollbackBulk
		switch {
		case whole:
			paths["whole"]++
		case m > 0:
			paths["sets"]++
		}
		if (scenario == 2 || scenario == 3) && !whole {
			t.Fatalf("round %d: scenario %d left %d of %d sets marked", round, scenario, m, numSets)
		}
		c.ResetForWarm(mc)
		c.LoadWarm(&a)
		ref, _, _ := newRig(t, smallCfg())
		ref.LoadWarm(&aRef)
		cTags, cSets, cFresh := warmState(c)
		rTags, rSets, rFresh := warmState(ref)
		if !reflect.DeepEqual(cTags, rTags) || !reflect.DeepEqual(cSets, rSets) ||
			cFresh != rFresh || c.stale != ref.stale {
			t.Fatalf("round %d (scenario %d, %d sets marked): rolled-back arrays differ from a fresh LoadWarm",
				round, scenario, m)
		}
		if n := a.work.marked(); n != 0 {
			t.Fatalf("round %d: LoadWarm left %d sets marked", round, n)
		}
	}
	if paths["sets"] == 0 || paths["whole"] == 0 {
		t.Fatalf("restore paths taken: %v, want both the per-set and the whole-copy path", paths)
	}
}
