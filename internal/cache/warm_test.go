package cache

import (
	"reflect"
	"testing"
)

// warmState captures everything Warm touches, for byte-level comparison.
func warmState(c *Cache) ([]uint64, []uint64, []bool, uint64) {
	tags := append([]uint64(nil), c.tags...)
	lru := append([]uint64(nil), c.lru...)
	dirty := append([]bool(nil), c.dirty...)
	return tags, lru, dirty, c.tick
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
	uTags, uLRU, uDirty, uTick := warmState(used)
	fTags, fLRU, fDirty, fTick := warmState(fresh)
	if !reflect.DeepEqual(uTags, fTags) || !reflect.DeepEqual(uLRU, fLRU) ||
		!reflect.DeepEqual(uDirty, fDirty) || uTick != fTick {
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
