package tracker

import (
	"math/rand"
	"testing"
)

// refMaxEntry is the pre-bitmap maxEntry, frozen as the reference: a full
// scan of the slot arrays for the highest count, ties toward the lowest row.
func refMaxEntry(t *mgTable) (row uint32, count int64, slot int32) {
	count, slot = -1, -1
	for s, c := range t.counts {
		if c < 0 {
			continue
		}
		if r := t.rows[s]; c > count || (c == count && r < row) {
			row, count, slot = r, c, int32(s)
		}
	}
	return row, count, slot
}

// checkMGLists verifies the per-bucket entry counts and the occupancy bitmap
// against the ring lists themselves.
func checkMGLists(t *testing.T, tb *mgTable) {
	t.Helper()
	for b := range tb.ring {
		k := int32(0)
		for s := tb.ring[b]; s >= 0; s = tb.next[s] {
			k++
		}
		if k != tb.ringN[b] {
			t.Fatalf("bucket %d holds %d entries, ringN says %d", b, k, tb.ringN[b])
		}
		if occupied := tb.occ[b>>6]>>(b&63)&1 == 1; occupied != (k > 0) {
			t.Fatalf("bucket %d: %d entries, occupancy bit %v", b, k, occupied)
		}
	}
}

// randomLiveSlot returns a uniformly chosen live slot of a non-empty table.
func randomLiveSlot(r *rand.Rand, tb *mgTable) int32 {
	for {
		if s := r.Intn(len(tb.counts)); tb.counts[s] >= 0 {
			return int32(s)
		}
	}
}

// TestMaxEntryMatchesFullScan drives mgTable directly with random inserts,
// increments, long increment bursts (counts more than mgRingSpan above the
// floor, so the overflow list fills and migrates), floor raises and
// resets-to-floor, over row spaces small enough to force heavy ties, and
// checks after every operation that maxEntry agrees with the full scan.
func TestMaxEntryMatchesFullScan(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		budget := []int{1, 2, 5, 64, 600}[r.Intn(5)]
		rowSpace := 1 + r.Intn(2*budget+1)
		var tb mgTable
		tb.init(budget)
		for op := 0; op < 3000; op++ {
			switch k := r.Intn(100); {
			case k < 40:
				if row := uint32(r.Intn(rowSpace)); tb.lookup(row) < 0 && tb.n < budget {
					tb.insert(row, tb.spill+1)
				}
			case k < 75 && tb.n > 0:
				tb.increment(randomLiveSlot(r, &tb))
			case k < 77 && tb.n > 0:
				slot := randomLiveSlot(r, &tb)
				for i := 0; i < mgRingSpan+r.Intn(2*mgRingSpan); i++ {
					tb.increment(slot)
				}
			case k < 90:
				tb.spillInc()
			case tb.n > 0:
				tb.resetToFloor(randomLiveSlot(r, &tb))
			}
			gr, gc, gs := tb.maxEntry()
			wr, wc, ws := refMaxEntry(&tb)
			if gr != wr || gc != wc || gs != ws {
				t.Fatalf("seed %d op %d (n=%d spill=%d ovN=%d): maxEntry = row %d count %d slot %d, full scan row %d count %d slot %d",
					seed, op, tb.n, tb.spill, tb.ovN, gr, gc, gs, wr, wc, ws)
			}
		}
		checkMGLists(t, &tb)
	}
}
