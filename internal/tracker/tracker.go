package tracker

import (
	"fmt"

	"autorfm/internal/rng"
)

// Selection is a tracker's nomination for mitigation.
type Selection struct {
	Row   uint32 // aggressor row to mitigate
	Level int    // 1 = direct aggressor; >1 = transitive re-mitigation of a prior mitigation's victims
	OK    bool   // false when the tracker has nothing to mitigate
}

// Tracker identifies aggressor rows within one bank.
type Tracker interface {
	// Name identifies the tracker in reports.
	Name() string
	// OnActivation observes one demand activation of row.
	OnActivation(row uint32)
	// SelectForMitigation is invoked when the bank receives mitigation time
	// (once per window of TH activations under RFM or AutoRFM). It returns
	// the nominated aggressor.
	SelectForMitigation() Selection
	// Reset clears all tracking state (e.g. at simulation start).
	Reset()
}

// MINT is the paper's representative tracker (MICRO'24, Fig 4): a
// single-entry tracker operating over a window of W activations. At the
// start of each window MINT pre-decides which activation slot in the window
// will be selected; when that slot's activation arrives the row is latched,
// and at the end of the window it is mitigated. MINT selects exactly one row
// per window — no more, no less — so the mitigation time per window is
// constant.
//
// In recursive-mitigation mode (the original MINT design, Section V-B) the
// selection is over W+1 slots, with the extra slot reserved for transitively
// re-mitigating the previous mitigation's victims at an increased distance.
// With Fractal Mitigation (Section V-C) the reserved slot is unnecessary and
// MINT selects over exactly W slots, which is what lets MINT+FM tolerate a
// lower threshold (74 vs 96 at W=4).
type MINT struct {
	window    int
	recursive bool
	r         *rng.Source

	slot    int    // pre-decided slot for the current window, in [0, W) or [0, W]
	count   int    // activations seen in the current window
	latched uint32 // row captured at the selected slot
	have    bool

	lastRow   uint32 // previous mitigation's aggressor (for the reserved slot)
	lastLevel int
	haveLast  bool
}

// NewMINT returns a MINT tracker with the given window size. If recursive is
// true the tracker reserves one extra slot for transitive re-mitigation
// (selection probability 1/(W+1) per activation); otherwise it selects over
// exactly W slots (probability 1/W), as in MINT+FM.
func NewMINT(window int, recursive bool, r *rng.Source) *MINT {
	return reuseMINT(nil, window, recursive, r)
}

// reuseMINT is NewMINT reinitialising prev in place when prev is a *MINT,
// and allocating otherwise. Either way the tracker's state and its PRNG
// draw are exactly NewMINT's.
func reuseMINT(prev Tracker, window int, recursive bool, r *rng.Source) *MINT {
	if window < 1 {
		panic(fmt.Sprintf("tracker: MINT window %d < 1", window))
	}
	m, _ := reuse[MINT](prev)
	m.window, m.recursive, m.r = window, recursive, r
	m.pickSlot()
	return m
}

// reuse returns prev zeroed when it is a *T, so a factory can rebuild the
// bank's previous tracker in place, and a new T otherwise. The second
// result is what prev held before the zeroing (the zero T when prev is not
// a *T), from which a table tracker takes back its arrays.
func reuse[T any, P interface {
	*T
	Tracker
}](prev Tracker) (P, T) {
	var zero T
	if p, ok := prev.(P); ok {
		old := *p
		*p = zero
		return p, old
	}
	return new(T), zero
}

func (m *MINT) Name() string {
	if m.recursive {
		return fmt.Sprintf("mint-%d+rm", m.window)
	}
	return fmt.Sprintf("mint-%d", m.window)
}

func (m *MINT) pickSlot() {
	n := m.window
	if m.recursive {
		n++ // slot == window means "reserved transitive slot"
	}
	m.slot = m.r.Intn(n)
	m.count = 0
	m.have = false
}

func (m *MINT) OnActivation(row uint32) {
	if m.count == m.slot {
		m.latched = row
		m.have = true
	}
	m.count++
}

func (m *MINT) SelectForMitigation() Selection {
	defer m.pickSlot()
	if m.have {
		m.lastRow, m.lastLevel, m.haveLast = m.latched, 1, true
		return Selection{Row: m.latched, Level: 1, OK: true}
	}
	// The reserved slot was selected (recursive mode), or the window closed
	// short of the selected slot (can happen when REF closes a window early).
	if m.recursive && m.slot == m.window && m.haveLast {
		m.lastLevel++
		return Selection{Row: m.lastRow, Level: m.lastLevel, OK: true}
	}
	return Selection{}
}

func (m *MINT) Reset() {
	m.haveLast = false
	m.pickSlot()
}

// PrIDE (ISCA'24) samples each activation with probability 1/window into a
// small FIFO; at mitigation time the oldest entry is mitigated. Its tolerated
// threshold is worse than MINT's because sampled entries can be lost when the
// FIFO overflows and mitigations are tardy relative to insertion.
type PrIDE struct {
	window   int
	fifoSize int
	r        *rng.Source
	// The FIFO is a fixed ring: PrIDE's whole point is that the SRAM queue
	// is tiny, and overflowing samples are dropped rather than grown into.
	fifo []uint32
	head int
	n    int

	// Loss statistics, used by tests and the analytic model validation.
	Inserted, Dropped uint64
}

// NewPrIDE returns a PrIDE tracker sampling with probability 1/window into a
// FIFO of fifoSize entries (the paper uses 4).
func NewPrIDE(window, fifoSize int, r *rng.Source) *PrIDE {
	return reusePrIDE(nil, window, fifoSize, r)
}

// reusePrIDE is NewPrIDE rebuilding prev in place, FIFO array included,
// when it is a *PrIDE.
func reusePrIDE(prev Tracker, window, fifoSize int, r *rng.Source) *PrIDE {
	if window < 1 || fifoSize < 1 {
		panic("tracker: invalid PrIDE parameters")
	}
	p, old := reuse[PrIDE](prev)
	// Appending a make allocates only when old.fifo's array is too small.
	p.window, p.fifoSize, p.r = window, fifoSize, r
	p.fifo = append(old.fifo[:0], make([]uint32, fifoSize)...)
	return p
}

func (p *PrIDE) Name() string { return fmt.Sprintf("pride-%d", p.window) }

func (p *PrIDE) OnActivation(row uint32) {
	if p.r.Intn(p.window) != 0 {
		return
	}
	p.Inserted++
	if p.n >= p.fifoSize {
		// FIFO full: the new sample is dropped (PrIDE drops the incoming
		// sample, keeping older, tardier entries).
		p.Dropped++
		return
	}
	p.fifo[(p.head+p.n)%p.fifoSize] = row
	p.n++
}

func (p *PrIDE) SelectForMitigation() Selection {
	if p.n == 0 {
		return Selection{}
	}
	row := p.fifo[p.head]
	p.head = (p.head + 1) % p.fifoSize
	p.n--
	return Selection{Row: row, Level: 1, OK: true}
}

func (p *PrIDE) Reset() {
	p.head, p.n = 0, 0
	p.Inserted, p.Dropped = 0, 0
}

// TableStats reports FIFO occupancy for telemetry; the spill floor is the
// number of dropped samples.
func (p *PrIDE) TableStats() (live, budget int, spill int64) {
	return p.n, p.fifoSize, int64(p.Dropped)
}

// PARFM buffers the rows activated during the window and mitigates one of
// them picked uniformly at random (Kim et al., HPCA'22; Section II-D).
type PARFM struct {
	bufSize int
	r       *rng.Source
	buf     []uint32
	seen    int
}

// NewPARFM returns a PARFM tracker whose buffer covers a mitigation window
// of bufSize activations.
func NewPARFM(bufSize int, r *rng.Source) *PARFM {
	return reusePARFM(nil, bufSize, r)
}

// reusePARFM is NewPARFM rebuilding prev in place, buffer array included,
// when it is a *PARFM.
func reusePARFM(prev Tracker, bufSize int, r *rng.Source) *PARFM {
	if bufSize < 1 {
		panic("tracker: invalid PARFM buffer size")
	}
	p, old := reuse[PARFM](prev)
	p.bufSize, p.r, p.buf = bufSize, r, append(old.buf[:0], make([]uint32, bufSize)...)[:0]
	return p
}

func (p *PARFM) Name() string { return fmt.Sprintf("parfm-%d", p.bufSize) }

func (p *PARFM) OnActivation(row uint32) {
	if len(p.buf) < p.bufSize {
		p.buf = append(p.buf, row)
	} else {
		// Reservoir-sample so every activation in the window has an equal
		// chance of being buffered even if the window overruns the buffer.
		if j := p.r.Intn(p.seen + 1); j < p.bufSize {
			p.buf[j] = row
		}
	}
	p.seen++
}

func (p *PARFM) SelectForMitigation() Selection {
	if len(p.buf) == 0 {
		return Selection{}
	}
	i := p.r.Intn(len(p.buf))
	row := p.buf[i]
	p.buf = p.buf[:0]
	p.seen = 0
	return Selection{Row: row, Level: 1, OK: true}
}

func (p *PARFM) Reset() {
	p.buf = p.buf[:0]
	p.seen = 0
}

// PARA is the classic inline probabilistic tracker (Kim et al., ISCA'14):
// each activation triggers a mitigation of that row with probability p,
// with no buffering and no scheduled window. It does not fit the RFM window
// model, so OnActivation latches at probability p and SelectForMitigation
// returns the latched row; the attack harness calls them back-to-back to
// model inline mitigation. PARA is included for the SMD comparison in
// Section VII-B.
type PARA struct {
	p    float64
	r    *rng.Source
	row  uint32
	have bool
}

// NewPARA returns a PARA tracker with selection probability p.
func NewPARA(p float64, r *rng.Source) *PARA {
	return reusePARA(nil, p, r)
}

// reusePARA is NewPARA rebuilding prev in place when it is a *PARA.
func reusePARA(prev Tracker, p float64, r *rng.Source) *PARA {
	if p <= 0 || p > 1 {
		panic("tracker: PARA probability out of (0,1]")
	}
	t, _ := reuse[PARA](prev)
	t.p, t.r = p, r
	return t
}

func (p *PARA) Name() string { return fmt.Sprintf("para-%.3f", p.p) }

func (p *PARA) OnActivation(row uint32) {
	if p.r.Bernoulli(p.p) {
		p.row, p.have = row, true
	}
}

func (p *PARA) SelectForMitigation() Selection {
	if !p.have {
		return Selection{}
	}
	p.have = false
	return Selection{Row: p.row, Level: 1, OK: true}
}

func (p *PARA) Reset() { p.have = false }

// Mithril (HPCA'22) is a deterministic counter-based tracker using a
// Misra-Gries frequent-items summary: the rows with the highest activation
// counts are guaranteed to be tracked. At mitigation time the row with the
// highest count is mitigated and its counter is reset to the current
// spillover floor. Appendix D notes Mithril needs >30K entries per bank to
// reach sub-125 thresholds.
//
// Storage is the flat mgTable (mgcore.go): parallel slot arrays plus an
// open-addressed index, matching the CAM+counter SRAM array the design
// describes, with the decrement-all step costing O(evicted) instead of a
// full-table sweep.
type Mithril struct {
	t mgTable
}

// NewMithril returns a Mithril tracker with the given entry budget.
func NewMithril(entries int) *Mithril {
	return reuseMithril(nil, entries)
}

// reuseMithril is NewMithril rebuilding prev in place, table arrays
// included, when it is a *Mithril.
func reuseMithril(prev Tracker, entries int) *Mithril {
	if entries < 1 {
		panic("tracker: invalid Mithril entry count")
	}
	m, old := reuse[Mithril](prev)
	m.t = old.t
	m.t.init(entries)
	return m
}

func (m *Mithril) Name() string { return fmt.Sprintf("mithril-%d", m.t.budget) }

func (m *Mithril) OnActivation(row uint32) {
	if slot := m.t.lookup(row); slot >= 0 {
		m.t.increment(slot)
		return
	}
	if m.t.n < m.t.budget {
		m.t.insert(row, m.t.spill+1)
		return
	}
	// Table full: Misra-Gries decrement-all, implemented with a floor value.
	m.t.spillInc()
	if m.t.n < m.t.budget {
		m.t.insert(row, m.t.spill+1)
	}
}

func (m *Mithril) SelectForMitigation() Selection {
	// Ties break toward the lowest row index (a hardware counter scan).
	row, count, slot := m.t.maxEntry()
	if count < 0 {
		return Selection{}
	}
	m.t.resetToFloor(slot) // mitigated: drop to the floor
	return Selection{Row: row, Level: 1, OK: true}
}

func (m *Mithril) Reset() { m.t.init(m.t.budget) }

// TableLen returns the number of live entries, for tests.
func (m *Mithril) TableLen() int { return m.t.n }

// TableStats reports table occupancy for telemetry.
func (m *Mithril) TableStats() (live, budget int, spill int64) {
	return m.t.n, m.t.budget, m.t.spill
}

var (
	_ TableStats = (*Mithril)(nil)
	_ TableStats = (*PrIDE)(nil)
)
