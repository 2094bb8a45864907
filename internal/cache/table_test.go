package cache

import (
	"testing"

	"autorfm/internal/event"
	"autorfm/internal/rng"
)

// TestMSHRTableMatchesMap drives a cache's MSHR index, as New sizes it,
// and a map reference with the same randomized get/put/del mix and
// requires identical membership throughout. Keys cluster in a small range
// so probe chains collide, the table grows, and backward-shift deletion
// runs against chains that actually wrapped. resetMeta then drains every
// outstanding MSHR back to the free list.
func TestMSHRTableMatchesMap(t *testing.T) {
	r := rng.New(41)
	c := New(Config{SizeBytes: 64 * 64 * 4, Ways: 4, LineBytes: 64}, nil, &event.Queue{})
	ref := map[uint64]*mshr{}
	for i := 0; i < 200_000; i++ {
		line := uint64(r.Int63n(300))
		switch r.Intn(3) {
		case 0: // put if absent
			if _, ok := ref[line]; !ok {
				m := c.getMSHR(line, false)
				ref[line] = m
				c.out.Put(line, m)
			}
		case 1: // del
			if m, ok := ref[line]; ok {
				delete(ref, line)
				c.out.Delete(line)
				c.putMSHR(m)
			}
		case 2: // get
		}
		if got, _ := c.out.Get(line); got != ref[line] {
			t.Fatalf("step %d: get(%d) = %p, reference %p", i, line, got, ref[line])
		}
		if c.out.Len() != len(ref) {
			t.Fatalf("step %d: table count %d, reference %d", i, c.out.Len(), len(ref))
		}
	}
	free := 0
	for m := c.freeM; m != nil; m = m.next {
		free++
	}
	c.resetMeta(nil)
	drained := -free
	for m := c.freeM; m != nil; m = m.next {
		drained++
	}
	if drained != len(ref) || c.out.Len() != 0 {
		t.Fatalf("drain freed %d MSHRs, want %d (%d left in the table)", drained, len(ref), c.out.Len())
	}
	if c.out.Has(1) {
		t.Fatal("drained table still reports membership")
	}
}

// TestLineSetMatchesMap drives a cache's recent-miss set, as New sizes it,
// and a map-set reference with the same randomized has/add/del mix, again
// over a colliding key range. The occupancy is held under recentCap like
// the real caller (the prefetch recency ring) guarantees.
func TestLineSetMatchesMap(t *testing.T) {
	r := rng.New(42)
	c := New(Config{SizeBytes: 64 * 64 * 4, Ways: 4, LineBytes: 64}, nil, &event.Queue{})
	ref := map[uint64]struct{}{}
	live := make([]uint64, 0, recentCap)
	for i := 0; i < 200_000; i++ {
		line := uint64(r.Int63n(2 * recentCap))
		switch r.Intn(3) {
		case 0:
			if len(ref) < recentCap {
				if _, ok := ref[line]; !ok {
					live = append(live, line)
				}
				ref[line] = struct{}{}
				c.recent.Put(line, struct{}{})
			}
		case 1:
			if len(live) > 0 {
				k := live[r.Intn(len(live))]
				delete(ref, k)
				c.recent.Delete(k)
				for j, v := range live {
					if v == k {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
			}
		case 2:
		}
		_, want := ref[line]
		if got := c.recent.Has(line); got != want {
			t.Fatalf("step %d: has(%d) = %v, reference %v", i, line, got, want)
		}
	}
	c.resetMeta(nil)
	for _, k := range live {
		if c.recent.Has(k) {
			t.Fatalf("reset left %d in the set", k)
		}
	}
}
