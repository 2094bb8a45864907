package tracker

import (
	"math"
	"math/bits"

	"autorfm/internal/hashtab"
)

// This file holds the flat storage shared by the counter-based trackers: a
// growable FIFO of rows (rowRing) and the Misra-Gries slot table (mgTable)
// behind Mithril and Graphene. Their row indexes, and TWiCe's, are
// hashtab.Maps. The hardware these trackers model is a fixed-size
// CAM+counter SRAM array, so the software model mirrors that shape:
// parallel rows[] / counts[] arrays addressed by slot, no per-entry heap
// objects, and no Go map on the activation path.
//
// The delicate part is the Misra-Gries "decrement all counters" step, which
// the map implementation realised by raising a spillover floor and sweeping
// the whole table for entries at or below it — O(table) per spill, and the
// dominant cost under miss-heavy streams. mgTable instead keeps every entry
// on exactly one intrusive list chosen by its effective count e = count −
// spill:
//
//   - e == 0: the reset list (entries dropped to the floor by a
//     mitigation; the next spill kills them)
//   - 1 ≤ e ≤ mgRingSpan: the ring bucket count & mgRingMask
//   - e > mgRingSpan: the overflow list, with a lazy minimum bound
//
// Raising the floor then evicts exactly the ring bucket the new floor lands
// on plus the reset list: a ring-resident entry has count in
// [spill, spill+mgRingSpan-1] and the doomed bucket selects count ≡ spill
// (mod mgRingSpan), so it contains precisely the entries with count ==
// spill. Overflow entries migrate into the ring when the rising floor
// brings them within span (the lazy bound triggers the scan no later than
// e == mgRingSpan, so none can die unseen). Eviction work is proportional
// to the number of entries actually evicted, never to the table size.
//
// The same lists make the mitigation-time "hottest row" query cheap: an
// occupancy bitmap over the ring buckets finds the highest occupied bucket
// in a few word operations, so maxEntry walks only the one list that holds
// the maximum (see maxEntry).
type mgTable struct {
	budget int   // logical entry budget (the modelled SRAM table size)
	spill  int64 // Misra-Gries spillover floor

	rows   []uint32
	counts []int64 // -1 marks a free slot; live entries hold count >= spill
	next   []int32 // intrusive doubly-linked list, -1 terminated
	prev   []int32
	free   []int32 // free-slot stack
	n      int     // live entries

	idx hashtab.Map[uint32, int32] // row -> slot

	ring      [mgRingSpan]int32       // heads per count & mgRingMask, 1 <= e <= span
	ringN     [mgRingSpan]int32       // entries per ring bucket
	occ       [mgRingSpan / 64]uint64 // bit b set iff ring bucket b is non-empty
	resetHead int32                   // head of entries with e == 0
	ovHead    int32                   // head of entries with e > span
	ovMin     int64                   // lower bound on the minimum overflow count
	ovN       int
}

const (
	mgRingSpan = 256 // effective counts tracked exactly; must be a power of two
	mgRingMask = mgRingSpan - 1
)

func (t *mgTable) init(budget int) {
	t.budget = budget
	t.spill = 0
	t.rows = t.rows[:0]
	t.counts = t.counts[:0]
	t.next = t.next[:0]
	t.prev = t.prev[:0]
	t.free = t.free[:0]
	t.n = 0
	t.idx.Init(budget)
	for i := range t.ring {
		t.ring[i] = -1
	}
	t.ringN = [mgRingSpan]int32{}
	t.occ = [mgRingSpan / 64]uint64{}
	t.resetHead = -1
	t.ovHead = -1
	t.ovMin = 0
	t.ovN = 0
}

// lookup returns the slot of row, or -1.
func (t *mgTable) lookup(row uint32) int32 {
	if slot, ok := t.idx.Get(row); ok {
		return slot
	}
	return -1
}

// link places slot on the list its effective count selects. The caller has
// already set counts[slot].
func (t *mgTable) link(slot int32) {
	var head *int32
	switch e := t.counts[slot] - t.spill; {
	case e == 0:
		head = &t.resetHead
	case e <= mgRingSpan:
		b := t.counts[slot] & mgRingMask
		head = &t.ring[b]
		t.ringN[b]++
		t.occ[b>>6] |= 1 << (b & 63)
	default:
		head = &t.ovHead
		if t.ovN == 0 || t.counts[slot] < t.ovMin {
			t.ovMin = t.counts[slot]
		}
		t.ovN++
	}
	t.next[slot] = *head
	t.prev[slot] = -1
	if *head >= 0 {
		t.prev[*head] = slot
	}
	*head = slot
}

// unlink removes slot from its current list. Must run before counts[slot]
// or the floor changes, because the list is derived from them.
func (t *mgTable) unlink(slot int32) {
	p, nx := t.prev[slot], t.next[slot]
	if nx >= 0 {
		t.prev[nx] = p
	}
	switch e := t.counts[slot] - t.spill; {
	case e == 0:
		if p < 0 {
			t.resetHead = nx
		}
	case e <= mgRingSpan:
		b := t.counts[slot] & mgRingMask
		if p < 0 {
			t.ring[b] = nx
		}
		if t.ringN[b]--; t.ringN[b] == 0 {
			t.occ[b>>6] &^= 1 << (b & 63)
		}
	default:
		if p < 0 {
			t.ovHead = nx
		}
		t.ovN--
	}
	if p >= 0 {
		t.next[p] = nx
	}
}

// increment bumps a live entry's counter, moving it between lists.
func (t *mgTable) increment(slot int32) {
	t.unlink(slot)
	t.counts[slot]++
	t.link(slot)
}

// insert adds row at the given count and returns its slot. Callers enforce
// the budget; the physical arrays grow to hold mitigation-queue residue
// beyond it (see Graphene.SelectForMitigation).
func (t *mgTable) insert(row uint32, count int64) int32 {
	var slot int32
	if k := len(t.free); k > 0 {
		slot = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		slot = int32(len(t.rows))
		t.rows = append(t.rows, 0)
		t.counts = append(t.counts, 0)
		t.next = append(t.next, 0)
		t.prev = append(t.prev, 0)
	}
	t.rows[slot] = row
	t.counts[slot] = count
	t.idx.Put(row, slot)
	t.link(slot)
	t.n++
	return slot
}

// release evicts an already-unlinked slot.
func (t *mgTable) release(slot int32) {
	t.idx.Delete(t.rows[slot])
	t.counts[slot] = -1
	t.free = append(t.free, slot)
	t.n--
}

// resetToFloor drops a live entry's estimated count to the floor, as a
// mitigation does. The entry survives until the next spill unless it is
// re-activated first.
func (t *mgTable) resetToFloor(slot int32) {
	t.unlink(slot)
	t.counts[slot] = t.spill
	t.link(slot)
}

// spillInc is the Misra-Gries decrement-all: raise the floor by one and
// evict exactly the entries that fall to it — the doomed ring bucket plus
// the reset list.
func (t *mgTable) spillInc() {
	t.spill++
	b := t.spill & mgRingMask
	for slot := t.ring[b]; slot >= 0; {
		nx := t.next[slot]
		t.release(slot)
		slot = nx
	}
	t.ring[b] = -1
	t.ringN[b] = 0
	t.occ[b>>6] &^= 1 << (b & 63)
	for slot := t.resetHead; slot >= 0; {
		nx := t.next[slot]
		t.release(slot)
		slot = nx
	}
	t.resetHead = -1
	if t.ovN > 0 && t.ovMin-t.spill <= mgRingSpan {
		t.migrateOverflow()
	}
}

// migrateOverflow moves overflow entries whose effective count has entered
// the ring span onto their ring buckets and recomputes the exact minimum of
// the remainder.
func (t *mgTable) migrateOverflow() {
	keep := int32(-1)
	var newMin int64
	kept := 0
	for slot := t.ovHead; slot >= 0; {
		nx := t.next[slot]
		if t.counts[slot]-t.spill <= mgRingSpan {
			b := t.counts[slot] & mgRingMask
			t.next[slot] = t.ring[b]
			t.prev[slot] = -1
			if t.ring[b] >= 0 {
				t.prev[t.ring[b]] = slot
			}
			t.ring[b] = slot
			t.ringN[b]++
			t.occ[b>>6] |= 1 << (b & 63)
		} else {
			t.next[slot] = keep
			t.prev[slot] = -1
			if keep >= 0 {
				t.prev[keep] = slot
			}
			keep = slot
			if kept == 0 || t.counts[slot] < newMin {
				newMin = t.counts[slot]
			}
			kept++
		}
		slot = nx
	}
	t.ovHead = keep
	t.ovMin = newMin
	t.ovN = kept
}

// maxEntry returns the live entry with the highest count, ties broken
// toward the lowest row index — the same total order the hardware counter
// scan (and the former map implementation) resolves to. count is -1 when
// the table is empty.
//
// The lists are ordered by effective count, so the maximum lives on the
// first non-empty one of: the overflow list; the ring buckets from e ==
// mgRingSpan down to e == 1 (topBucket); the reset list. Only that list is
// walked. Chasing list links costs about 2.5× a sequential slot-array scan
// per entry, so when the list holds more than 2/5 of the slots — the
// all-ties case — maxEntry scans instead, and the worst case stays that
// scan. Every entry of a ring bucket or the reset list holds the same
// count, so that scan only looks for the lowest row (scanCount).
func (t *mgTable) maxEntry() (row uint32, count int64, slot int32) {
	if t.ovN > 0 {
		if 5*t.ovN > 2*len(t.counts) {
			return t.scanMax()
		}
		return t.walkMax(t.ovHead)
	}
	head, k, c := t.resetHead, t.n, t.spill
	if b := t.topBucket(); b >= 0 {
		head, k, c = t.ring[b], int(t.ringN[b]), t.counts[t.ring[b]]
	}
	if 5*k > 2*len(t.counts) {
		row, slot = t.scanCount(c)
		return row, c, slot
	}
	return t.walkMax(head)
}

// walkMax is maxEntry over the list starting at head.
func (t *mgTable) walkMax(head int32) (row uint32, count int64, slot int32) {
	count, slot = -1, -1
	for s := head; s >= 0; s = t.next[s] {
		c, r := t.counts[s], t.rows[s]
		if c > count || (c == count && r < row) {
			row, count, slot = r, c, s
		}
	}
	return row, count, slot
}

// scanCount returns the lowest row among the entries holding count c, by a
// scan of the slot arrays (slot -1 if there are none). Rows are unique, so
// the MaxUint32 sentinel cannot shadow a real row.
func (t *mgTable) scanCount(c int64) (row uint32, slot int32) {
	row, slot = math.MaxUint32, -1
	rows := t.rows[:len(t.counts)]
	for s, cc := range t.counts {
		if cc == c && rows[s] <= row {
			row, slot = rows[s], int32(s)
		}
	}
	return row, slot
}

// topBucket returns the occupied ring bucket with the highest effective
// count, or -1 if the ring is empty. Bucket b holds e = (b − spill) mod
// mgRingSpan, with e == mgRingSpan landing on b == spill & mgRingMask, so
// effective count descends through buckets s, s−1, …, 0, then
// mgRingSpan−1, …, s+1.
func (t *mgTable) topBucket() int {
	s := int(t.spill & mgRingMask)
	if b := t.highestOccupiedBelow(s + 1); b >= 0 {
		return b
	}
	return t.highestOccupiedBelow(mgRingSpan)
}

// highestOccupiedBelow returns the highest occupied ring bucket below lim,
// or -1.
func (t *mgTable) highestOccupiedBelow(lim int) int {
	w := lim >> 6
	if r := lim & 63; r != 0 {
		if m := t.occ[w] & (1<<r - 1); m != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(m)
		}
	}
	for w--; w >= 0; w-- {
		if m := t.occ[w]; m != 0 {
			return w<<6 + 63 - bits.LeadingZeros64(m)
		}
	}
	return -1
}

// scanMax is maxEntry by a full scan of the slot arrays, the fallback for a
// long overflow list, whose counts differ.
func (t *mgTable) scanMax() (row uint32, count int64, slot int32) {
	count, slot = -1, -1
	for s := range t.counts {
		c := t.counts[s]
		if c < 0 {
			continue
		}
		r := t.rows[s]
		if c > count || (c == count && r < row) {
			row, count, slot = r, c, int32(s)
		}
	}
	return row, count, slot
}

// rowRing is a growable FIFO of row indices (Graphene's pending-mitigation
// queue). Steady state never allocates; growth doubles.
type rowRing struct {
	buf  []uint32
	head int
	n    int
}

func (r *rowRing) len() int { return r.n }

func (r *rowRing) push(row uint32) {
	if r.n == len(r.buf) {
		size := 2 * len(r.buf)
		if size == 0 {
			size = 16
		}
		buf := make([]uint32, size)
		for i := 0; i < r.n; i++ {
			buf[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = buf
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = row
	r.n++
}

func (r *rowRing) pop() uint32 {
	row := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return row
}

func (r *rowRing) reset() {
	r.head = 0
	r.n = 0
}
