package cache

import (
	"reflect"
	"testing"
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
