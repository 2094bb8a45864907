package tracker

import "fmt"

// REFAware is implemented by trackers that need the periodic-refresh signal
// (e.g. TWiCe prunes its table every refresh interval). The DRAM bank model
// calls OnREF for each REF command it executes.
type REFAware interface {
	OnREF()
}

// TableStats is implemented by trackers whose table occupancy is a
// meaningful gauge for telemetry. live is the current entry count, budget
// the fixed entry budget (0 for unbounded tables like TWiCe's), and spill
// the tracker's loss floor: the Misra-Gries decrement-all count for counter
// summaries, or the number of dropped samples for FIFO trackers.
type TableStats interface {
	TableStats() (live, budget int, spill int64)
}

// Graphene (Park et al., MICRO'20; Section VII-D) is a deterministic
// counter tracker built on the Misra-Gries frequent-items summary, like
// Mithril, but it nominates a row as soon as its estimated count crosses a
// mitigation threshold rather than waiting to be asked for the hottest row.
// Crossed rows queue until the device receives mitigation time.
//
// Storage is the flat mgTable plus a ring FIFO and an open-addressed
// membership set for the pending queue. A mitigated row that was evicted
// from the table while queued is re-inserted at the floor, so the physical
// arrays carry a little headroom beyond the logical entry budget — the
// budget check in OnActivation keeps the live population honest.
type Graphene struct {
	threshold int64
	t         mgTable
	q         rowRing
	inQ       rowMap
}

// NewGraphene returns a Graphene tracker with the given entry budget that
// nominates rows at the given estimated activation count.
func NewGraphene(entries int, threshold int64) *Graphene {
	return reuseGraphene(nil, entries, threshold)
}

// reuseGraphene is NewGraphene rebuilding prev in place, table, queue and
// index arrays included, when it is a *Graphene.
func reuseGraphene(prev Tracker, entries int, threshold int64) *Graphene {
	if entries < 1 || threshold < 1 {
		panic("tracker: invalid Graphene parameters")
	}
	g, old := reuse[Graphene](prev)
	g.threshold, g.t, g.q, g.inQ = threshold, old.t, old.q, old.inQ
	g.t.init(entries)
	g.q.reset()
	g.inQ.init(16)
	return g
}

func (g *Graphene) Name() string {
	return fmt.Sprintf("graphene-%d@%d", g.t.budget, g.threshold)
}

func (g *Graphene) OnActivation(row uint32) {
	slot := g.t.lookup(row)
	switch {
	case slot >= 0:
		g.t.increment(slot)
	case g.t.n < g.t.budget:
		slot = g.t.insert(row, g.t.spill+1)
	default:
		g.t.spillInc()
		if g.t.n < g.t.budget {
			slot = g.t.insert(row, g.t.spill+1)
		}
	}
	if slot >= 0 && g.t.counts[slot] >= g.threshold && g.inQ.get(row) < 0 {
		g.q.push(row)
		g.inQ.put(row, 0)
	}
}

func (g *Graphene) SelectForMitigation() Selection {
	if g.q.len() == 0 {
		return Selection{}
	}
	row := g.q.pop()
	g.inQ.del(row)
	// The estimated count resets to the floor. If the row was evicted while
	// it waited in the queue, it re-enters the table at the floor (dying at
	// the next spill unless re-activated), exactly as the map model's
	// unconditional assignment did.
	if slot := g.t.lookup(row); slot >= 0 {
		g.t.resetToFloor(slot)
	} else {
		g.t.insert(row, g.t.spill)
	}
	return Selection{Row: row, Level: 1, OK: true}
}

func (g *Graphene) Reset() {
	g.t.init(g.t.budget)
	g.q.reset()
	g.inQ.clear()
}

// Pending returns the number of rows waiting for mitigation time; exported
// so tests can check that the queue drains.
func (g *Graphene) Pending() int { return g.q.len() }

// TableLen returns the number of live table entries, for tests.
func (g *Graphene) TableLen() int { return g.t.n }

// TableStats reports table occupancy for telemetry.
func (g *Graphene) TableStats() (live, budget int, spill int64) {
	return g.t.n, g.t.budget, g.t.spill
}

// TWiCe (Lee et al., ISCA'19; Section VII-D) tracks candidate aggressors in
// time-window counters: an entry's activation count is compared against a
// pruning threshold that grows with the entry's age in refresh intervals,
// so rows that cannot possibly reach the Rowhammer threshold before their
// victims are refreshed are dropped early, keeping the table small.
//
// Entries live in flat slot arrays (count 0 marks a free slot; live counts
// start at 1) with an open-addressed row index, so OnREF ages the table by
// walking an array instead of rehashing a map of pointers.
type TWiCe struct {
	threshold  int64 // Rowhammer threshold the design targets
	lifeEpochs int64 // refresh intervals in a retention window (tREFW/tREFI)

	rows   []uint32
	counts []int64
	life   []int64
	free   []int32
	n      int
	idx    rowMap
}

// NewTWiCe returns a TWiCe tracker targeting the given Rowhammer threshold.
func NewTWiCe(threshold int64) *TWiCe {
	return reuseTWiCe(nil, threshold)
}

// reuseTWiCe is NewTWiCe rebuilding prev in place when it is a *TWiCe,
// keeping the slot arrays and the row index it grew: TWiCe's table size is
// workload-dependent by design, so they grow on demand.
func reuseTWiCe(prev Tracker, threshold int64) *TWiCe {
	if threshold < 2 {
		panic("tracker: invalid TWiCe threshold")
	}
	t, old := reuse[TWiCe](prev)
	t.threshold = threshold
	t.lifeEpochs = 8192 // REF commands per tREFW in DDR5
	t.rows, t.counts, t.life, t.free = old.rows[:0], old.counts[:0], old.life[:0], old.free[:0]
	t.idx = old.idx
	t.idx.init(16)
	return t
}

func (t *TWiCe) Name() string { return fmt.Sprintf("twice-%d", t.threshold) }

func (t *TWiCe) OnActivation(row uint32) {
	if slot := t.idx.get(row); slot >= 0 {
		t.counts[slot]++
		return
	}
	var slot int32
	if k := len(t.free); k > 0 {
		slot = t.free[k-1]
		t.free = t.free[:k-1]
	} else {
		slot = int32(len(t.rows))
		t.rows = append(t.rows, 0)
		t.counts = append(t.counts, 0)
		t.life = append(t.life, 0)
	}
	t.rows[slot] = row
	t.counts[slot] = 1
	t.life[slot] = 0
	t.idx.put(row, slot)
	t.n++
}

func (t *TWiCe) drop(slot int32) {
	t.idx.del(t.rows[slot])
	t.counts[slot] = 0
	t.free = append(t.free, slot)
	t.n--
}

// OnREF ages every entry and prunes those whose activation rate cannot
// reach the threshold within the retention window: after k of the L
// refresh intervals, a row needs at least threshold×k/L activations to
// stay a candidate.
func (t *TWiCe) OnREF() {
	for s := range t.counts {
		if t.counts[s] == 0 {
			continue
		}
		t.life[s]++
		need := t.threshold * t.life[s] / t.lifeEpochs
		if t.counts[s] < need {
			t.drop(int32(s))
		}
	}
}

// SelectForMitigation nominates the candidate closest to the threshold,
// removing it from the table (its victims are refreshed, restarting its
// window).
func (t *TWiCe) SelectForMitigation() Selection {
	var best uint32
	bestCount := int64(-1)
	bestSlot := int32(-1)
	// Ties break toward the lowest row index (a hardware counter scan).
	for s := range t.counts {
		c := t.counts[s]
		if c == 0 {
			continue
		}
		r := t.rows[s]
		if c > bestCount || (c == bestCount && r < best) {
			best, bestCount, bestSlot = r, c, int32(s)
		}
	}
	// Only mitigate rows that have crossed half the threshold — TWiCe
	// mitigates "twice" before the threshold is reachable.
	if bestCount < t.threshold/2 {
		return Selection{}
	}
	t.drop(bestSlot)
	return Selection{Row: best, Level: 1, OK: true}
}

func (t *TWiCe) Reset() {
	t.rows = t.rows[:0]
	t.counts = t.counts[:0]
	t.life = t.life[:0]
	t.free = t.free[:0]
	t.n = 0
	t.idx.clear()
}

// TableSize returns the current number of tracked candidates; exported so
// tests can verify the pruning keeps the table small.
func (t *TWiCe) TableSize() int { return t.n }

// Contains reports whether row is currently tracked, for tests.
func (t *TWiCe) Contains(row uint32) bool { return t.idx.get(row) >= 0 }

// TableStats reports table occupancy for telemetry. TWiCe's table is
// unbounded (pruning keeps it small), so the budget is 0 and nothing spills.
func (t *TWiCe) TableStats() (live, budget int, spill int64) {
	return t.n, 0, 0
}

var (
	_ Tracker    = (*Graphene)(nil)
	_ Tracker    = (*TWiCe)(nil)
	_ REFAware   = (*TWiCe)(nil)
	_ TableStats = (*Graphene)(nil)
	_ TableStats = (*TWiCe)(nil)
)
