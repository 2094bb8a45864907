package fault

import (
	"fmt"
	"hash/fnv"
	"math"

	"autorfm/internal/rng"
	"autorfm/internal/tracker"
)

// Config selects which faults to inject. The zero value injects nothing.
// All fields are plain scalars so the struct is comparable and participates
// in sim.Config's memoization key.
type Config struct {
	// Seed drives all injector randomness, independently of the simulation
	// seed so the same fault pattern can be replayed across configs.
	Seed uint64

	// ActMissProb is the per-activation probability that the tracker misses
	// the activation entirely (no counter update).
	ActMissProb float64
	// TrackerBitFlipProb is the per-activation probability that one bit of
	// the row address the tracker observes is flipped.
	TrackerBitFlipProb float64
	// DropMitigationProb is the probability that a tracker nomination is
	// lost after selection: the mitigation command is dropped and no victim
	// refreshes happen for it.
	DropMitigationProb float64
	// DelayMitigationProb is the probability that a nomination is deferred
	// to the next mitigation slot instead of being served immediately.
	DelayMitigationProb float64

	// PanicAfterActs, when > 0, panics the simulation at the Nth activation
	// observed by any single bank's tracker. A chaos knob: it proves the
	// experiment runner survives a job that dies mid-flight.
	PanicAfterActs int
	// ChaosProb is the probability — decided once per job from Seed and the
	// job's identity, before any simulation work — that the whole job
	// panics at startup. Unlike PanicAfterActs it fails only a deterministic
	// subset of a sweep's jobs, which is what the chaos tests need.
	ChaosProb float64
}

// Active reports whether the config injects tracker/mitigation faults
// (chaos knobs excluded: they kill jobs rather than perturb tracking).
func (c Config) Active() bool {
	return c.ActMissProb > 0 || c.TrackerBitFlipProb > 0 ||
		c.DropMitigationProb > 0 || c.DelayMitigationProb > 0 ||
		c.PanicAfterActs > 0
}

// Injects reports whether the config does anything to a run: a tracker or
// mitigation fault, a panic, or a chaos kill. A Seed alone injects nothing.
func (c Config) Injects() bool {
	return c.Active() || c.ChaosProb > 0
}

// Validate rejects probabilities outside [0, 1] (or NaN) and negative
// panic counts.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"ActMissProb", c.ActMissProb},
		{"TrackerBitFlipProb", c.TrackerBitFlipProb},
		{"DropMitigationProb", c.DropMitigationProb},
		{"DelayMitigationProb", c.DelayMitigationProb},
		{"ChaosProb", c.ChaosProb},
	} {
		if math.IsNaN(p.v) || p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0, 1]", p.name, p.v)
		}
	}
	if c.PanicAfterActs < 0 {
		return fmt.Errorf("fault: PanicAfterActs %d negative", c.PanicAfterActs)
	}
	return nil
}

// rowBits is the span of row-address bits a flip may land in; it covers the
// 128K rows per bank of the paper's DDR5 geometry.
const rowBits = 17

// Tracker wraps an inner tracker with the config's injectors. It forwards
// OnREF to REF-aware inner trackers, so wrapping is transparent to the
// device model.
type Tracker struct {
	inner tracker.Tracker
	cfg   Config
	r     *rng.Source

	acts    int
	delayed tracker.Selection

	// Injection counters, exposed for tests and reports.
	Missed, Flipped, DroppedMits, DelayedMits uint64
}

// WrapTracker returns inner wrapped with cfg's injectors, drawing from the
// given PRNG. If the config injects nothing, inner is returned unchanged.
func WrapTracker(inner tracker.Tracker, cfg Config, r *rng.Source) tracker.Tracker {
	if !cfg.Active() {
		return inner
	}
	return &Tracker{inner: inner, cfg: cfg, r: r}
}

// Name identifies the wrapped tracker in reports.
func (t *Tracker) Name() string { return "faulty(" + t.inner.Name() + ")" }

// Inner exposes the wrapped tracker (used by tests).
func (t *Tracker) Inner() tracker.Tracker { return t.inner }

// OnActivation passes the observation through the injectors: a chaos panic
// at the configured count, a missed observation, or a single-bit row flip.
func (t *Tracker) OnActivation(row uint32) {
	t.acts++
	if t.cfg.PanicAfterActs > 0 && t.acts == t.cfg.PanicAfterActs {
		panic(fmt.Sprintf("fault: injected tracker panic at activation %d", t.acts))
	}
	if t.r.Bernoulli(t.cfg.ActMissProb) {
		t.Missed++
		return
	}
	if t.r.Bernoulli(t.cfg.TrackerBitFlipProb) {
		row ^= 1 << uint(t.r.Intn(rowBits))
		t.Flipped++
	}
	t.inner.OnActivation(row)
}

// SelectForMitigation forwards the inner selection through the drop and
// delay injectors. A dropped nomination is lost outright; a delayed one is
// stashed and served at the next mitigation slot in place of that slot's
// own nomination (which is stashed in turn).
func (t *Tracker) SelectForMitigation() tracker.Selection {
	sel := t.inner.SelectForMitigation()
	if sel.OK && t.r.Bernoulli(t.cfg.DropMitigationProb) {
		t.DroppedMits++
		return tracker.Selection{}
	}
	if sel.OK && t.r.Bernoulli(t.cfg.DelayMitigationProb) {
		t.DelayedMits++
		t.delayed, sel = sel, t.delayed
	} else if !sel.OK && t.delayed.OK {
		// An empty slot drains the delayed nomination.
		sel, t.delayed = t.delayed, tracker.Selection{}
	}
	return sel
}

// Reset clears the inner tracker and the injector state.
func (t *Tracker) Reset() {
	t.inner.Reset()
	t.acts = 0
	t.delayed = tracker.Selection{}
}

// OnREF forwards the REF notification when the inner tracker wants it.
func (t *Tracker) OnREF() {
	if ra, ok := t.inner.(tracker.REFAware); ok {
		ra.OnREF()
	}
}

var (
	_ tracker.Tracker  = (*Tracker)(nil)
	_ tracker.REFAware = (*Tracker)(nil)
)

// ChaosPanics deterministically decides whether the job identified by id
// panics under cfg's ChaosProb: the decision is a pure function of
// (cfg.Seed, id), so resubmitting the same job always reproduces it while
// the rest of a sweep's jobs proceed.
func ChaosPanics(cfg Config, id string) bool {
	if cfg.ChaosProb <= 0 {
		return false
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	return rng.New(cfg.Seed ^ h.Sum64()).Bernoulli(cfg.ChaosProb)
}

// MaybeChaosPanic panics when ChaosPanics selects the job.
func MaybeChaosPanic(cfg Config, id string) {
	if ChaosPanics(cfg, id) {
		panic(fmt.Sprintf("fault: injected chaos panic (job %s)", id))
	}
}
