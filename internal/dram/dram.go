package dram

import (
	"fmt"
	"math"

	"autorfm/internal/clk"
	"autorfm/internal/mapping"
	"autorfm/internal/mitigation"
	"autorfm/internal/rng"
	"autorfm/internal/telemetry"
	"autorfm/internal/tracker"
)

// Mode selects how the device obtains time for Rowhammer mitigation.
type Mode int

const (
	// ModeNone performs no Rowhammer mitigation (the performance baseline).
	ModeNone Mode = iota
	// ModeRFM is the DDR5 blocking Refresh-Management scheme: the memory
	// controller counts activations (RAA) and issues explicit RFM commands
	// that stall the whole bank for tRFM (Section II-E).
	ModeRFM
	// ModeAutoRFM is the paper's transparent scheme: the device mitigates on
	// its own at every AutoRFMTH activations, keeping only one subarray busy
	// and ALERTing conflicting activations (Section IV).
	ModeAutoRFM
	// ModePRAC models per-row activation counting with Alert Back-Off
	// (PRAC+ABO, implemented in the style of MOAT; Section VII-A).
	ModePRAC
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case ModeNone:
		return "none"
	case ModeRFM:
		return "rfm"
	case ModeAutoRFM:
		return "autorfm"
	case ModePRAC:
		return "prac"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Config describes the device-side configuration shared by all banks.
type Config struct {
	Geo    mapping.Geometry
	Timing clk.Timing
	Mode   Mode
	// TH is the mitigation interval in activations: RFMTH for ModeRFM,
	// AutoRFMTH for ModeAutoRFM. It sets the tracker window.
	TH int
	// NewTracker builds the per-bank tracker from the Env the bank fills:
	// its ID, TH and PRNG, whether the policy just built for it is
	// recursive, and its tracker before a Reset (Prev, nil in NewDevice),
	// which the hook may rebuild in place, keeping its tables. Defaults to
	// MINT with window TH.
	NewTracker func(env tracker.Env) tracker.Tracker
	// NewPolicy builds the per-bank victim-refresh policy. Defaults to
	// Fractal Mitigation. prev is the bank's policy before a Reset (nil in
	// NewDevice), which the hook may rebuild in place (see
	// mitigation.Env.Prev).
	NewPolicy func(bank int, r *rng.Source, prev mitigation.Policy) mitigation.Policy
	// PRACETh is the per-row counter value at which a PRAC device raises
	// ABO. Required for ModePRAC, and at most PRACMaxETh: the counters
	// saturate there.
	PRACETh int
	// Audit enables the per-row activation ledger on every bank (used by
	// the security harness; costs time and memory, off for perf runs).
	Audit bool
	// AuditThreshold is the single-sided activation count at which the
	// ledger records a Rowhammer failure (TRH-S = 2 × TRH-D).
	AuditThreshold uint32
	// Seed seeds all device-side PRNGs.
	Seed uint64
	// Trace, when non-nil, receives the device-side mitigation windows
	// (telemetry; observational only).
	Trace *telemetry.CommandTrace
}

func (c *Config) fillDefaults() {
	if c.TH == 0 {
		c.TH = 4
	}
	if c.NewPolicy == nil {
		c.NewPolicy = func(bank int, r *rng.Source, _ mitigation.Policy) mitigation.Policy {
			return mitigation.NewFractal(r)
		}
	}
	if c.NewTracker == nil {
		c.NewTracker = func(env tracker.Env) tracker.Tracker {
			return tracker.NewMINT(env.TH, env.Recursive, env.R)
		}
	}
}

// Resolve turns a policy and a tracker selector into validated per-bank
// hooks for Config.NewPolicy and Config.NewTracker. Unknown names, unknown
// parameters and out-of-range values are errors here, at config time, not
// panics in a bank's build: each selector gets one probe build at interval
// th. The hooks rebuild a bank's previous policy and tracker in place (see
// the Env.Prev fields). They are not safe for concurrent use; every device
// config resolves its own.
func Resolve(policy, trk string, th int) (
	newPolicy func(bank int, r *rng.Source, prev mitigation.Policy) mitigation.Policy,
	newTracker func(env tracker.Env) tracker.Tracker, err error) {
	buildPol, err := mitigation.FromSpecEnv(policy)
	if err != nil {
		return nil, nil, err
	}
	if _, err := buildPol(mitigation.Env{R: rng.New(0)}); err != nil {
		return nil, nil, err
	}
	buildTrk, err := tracker.FromSpec(trk)
	if err != nil {
		return nil, nil, err
	}
	if _, err := buildTrk(tracker.Env{TH: th, R: rng.New(0)}); err != nil {
		return nil, nil, err
	}
	newPolicy = func(_ int, r *rng.Source, prev mitigation.Policy) mitigation.Policy {
		return must(buildPol(mitigation.Env{R: r, Prev: prev}))
	}
	newTracker = func(env tracker.Env) tracker.Tracker { return must(buildTrk(env)) }
	return newPolicy, newTracker, nil
}

// must unwraps a bank's build of a selector whose probe build succeeded.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err) // unreachable: Resolve's probe accepted the spec
	}
	return v
}

// BankStats counts device-side events in one bank.
type BankStats struct {
	Acts            uint64 // successful demand activations
	Alerts          uint64 // ACTs declined because they hit the SAUM
	Mitigations     uint64 // mitigations performed (any mode)
	TransitiveMits  uint64 // mitigations at level > 1 (recursive chains)
	VictimRefreshes uint64 // victim-row refreshes issued
	ABOAlerts       uint64 // PRAC counter overflows signalled
	SAUMBusy        clk.Tick
}

// ActResult reports the device-side outcome of an activation attempt.
type ActResult struct {
	// Alert is true when the ACT conflicted with the subarray under
	// mitigation: the ACT failed and must be retried after the mitigation
	// time (the MC marks the bank busy, Fig 7).
	Alert bool
	// ABO is true when a PRAC per-row counter reached ETH on this ACT; the
	// MC must grant mitigation time (back-off).
	ABO bool
	// WindowClosed is true when this ACT completed an AutoRFM window: the
	// mitigation will start at this ACT's precharge, which the MC signals
	// via StartPendingMitigation.
	WindowClosed bool
}

// Bank models one DRAM bank.
type Bank struct {
	ID  int
	cfg *Config

	trk    tracker.Tracker
	policy mitigation.Policy
	// r is the bank's PRNG, reseeded in place by every pipeline build, so
	// the tracker and policy a Reset rebuilds keep drawing from &r.
	r rng.Source

	// va and victimBuf form the allocation-free victim path: va is the
	// policy's VictimAppender when it implements one, and victimBuf is the
	// per-bank buffer it appends into, backed by victimArr. Victim lists
	// are consumed synchronously inside mitigate, so one buffer per bank
	// suffices.
	va        mitigation.VictimAppender
	victimBuf []uint32
	// Victim lists hold at most four rows; the cushion keeps an
	// out-of-spec policy from spilling per mitigation.
	victimArr [8]uint32

	// AutoRFM window state.
	actsInWindow int
	pendingMit   bool

	// SAUM state: the subarray under mitigation and until when.
	saum      int
	saumUntil clk.Tick

	// PRAC per-row counters: a flat per-bank slice indexed by row, the
	// dense counter-per-row array the PRAC DDR5 extension actually adds.
	// They are 16 bits wide and saturate at PRACMaxETh, which is exact for
	// every ETh up to it and halves the array the ACT path misses in. The
	// device allocates them on its first PRAC run and keeps them across
	// Resets to any mode. pracRaised lists the rows whose counter left zero
	// since the last Reset, the only counters that Reset has to clear; once
	// the list is full, pracWipe makes it clear the whole array instead.
	pracCounts []uint16
	pracRaised []uint32
	pracWipe   bool
	aboRow     uint32
	aboPending bool

	Stats  BankStats
	Ledger *Ledger
}

// Device is the full DRAM channel: all banks plus shared configuration.
type Device struct {
	Cfg   Config
	Banks []*Bank
}

// NewDevice builds the device: one tracker, policy and PRNG per bank.
func NewDevice(cfg Config) *Device {
	cfg.fillDefaults()
	d := &Device{Cfg: cfg}
	d.Banks = make([]*Bank, cfg.Geo.Banks)
	for i := range d.Banks {
		b := &Bank{ID: i, cfg: &d.Cfg}
		b.buildPipeline(&d.Cfg)
		if cfg.Audit {
			b.Ledger = NewLedger(cfg.Geo.RowsPerBank, cfg.AuditThreshold)
		}
		d.Banks[i] = b
	}
	if cfg.Mode == ModePRAC {
		d.allocPRAC()
	}
	return d
}

// PRACMaxETh is the largest PRAC alert threshold a device supports: the
// per-row counters stop counting there, so a count at or above any ETh up
// to it compares exactly as an unbounded count would.
const PRACMaxETh = math.MaxUint16

// pracListDiv sizes each bank's raised-row list at RowsPerBank/pracListDiv
// entries, below where scattered stores stop beating one sequential clear:
// on a 2-vCPU host, clearing 2,048 random rows in each of 64 banks of 128K
// rows took 0.8 ms, 4,096 rows 1.7 ms, and clearing all 32MB 1.5 ms.
const pracListDiv = 64

// allocPRAC gives every bank its PRAC counter array and raised-row list,
// carved from one allocation each, unless the device already has them.
func (d *Device) allocPRAC() {
	if len(d.Banks) == 0 || d.Banks[0].pracCounts != nil {
		return
	}
	rows := d.Cfg.Geo.RowsPerBank
	listCap := rows / pracListDiv
	counts := make([]uint16, len(d.Banks)*rows)
	lists := make([]uint32, len(d.Banks)*listCap)
	for i, b := range d.Banks {
		b.pracCounts = counts[i*rows : (i+1)*rows : (i+1)*rows]
		b.pracRaised = lists[i*listCap : i*listCap : (i+1)*listCap]
	}
}

// raisePRAC counts one activation of row and returns the new count, which
// saturates at PRACMaxETh, listing the row for the next Reset when its
// counter leaves zero.
func (b *Bank) raisePRAC(row uint32) uint16 {
	n := b.pracCounts[row]
	if n == 0 {
		if len(b.pracRaised) < cap(b.pracRaised) {
			b.pracRaised = append(b.pracRaised, row)
		} else {
			b.pracWipe = true
		}
	}
	if n < PRACMaxETh {
		n++
	}
	b.pracCounts[row] = n
	return n
}

// clearPRAC zeroes every counter raised since the last Reset.
func (b *Bank) clearPRAC() {
	if b.pracWipe {
		clear(b.pracCounts)
	} else {
		for _, row := range b.pracRaised {
			b.pracCounts[row] = 0
		}
	}
	b.pracRaised, b.pracWipe = b.pracRaised[:0], false
}

// buildPipeline constructs the bank's fresh-state device pipeline — PRNG,
// policy, tracker — and zeroes the per-run scalar state. It is the shared
// core of NewDevice and Reset: both produce bit-identical bank state. It is
// the one place a bank's tracker.Env is filled: the tracker learns from it
// whether the policy just built is recursive. The hooks get the bank's
// previous policy and tracker, which the built-in ones rebuild in place.
func (b *Bank) buildPipeline(cfg *Config) {
	b.r.Seed(cfg.Seed ^ (0xb1a5ed<<16 + uint64(b.ID)*0x9e37))
	b.policy = cfg.NewPolicy(b.ID, &b.r, b.policy)
	b.trk = cfg.NewTracker(tracker.Env{Bank: b.ID, TH: cfg.TH, Recursive: b.policy.Recursive(),
		R: &b.r, Prev: b.trk})
	b.va, b.victimBuf = nil, nil
	if va, ok := b.policy.(mitigation.VictimAppender); ok {
		b.va, b.victimBuf = va, b.victimArr[:0]
	}
	b.actsInWindow, b.pendingMit = 0, false
	b.saum, b.saumUntil = -1, 0
	b.aboRow, b.aboPending = 0, false
	b.Stats = BankStats{}
}

// Reset reinitialises the device for cfg, reusing its biggest allocations —
// the per-bank PRAC counter arrays and audit ledgers — instead of
// reallocating them, and reports whether it could. Reuse requires the same
// geometry and audit setting (those decide how large the arrays are and
// whether ledgers exist); everything else — mode, seed, TH, tracker/policy
// constructors, trace attachment — is replaced wholesale, and the per-bank
// pipelines are rebuilt from the new constructors, so the post-Reset device
// behaves bit-identically to NewDevice(cfg) (pinned by the machine reuse
// test). PRAC counters survive a run in another mode untouched and all zero,
// since only PRAC mode reads or writes them; the first PRAC run allocates
// them.
func (d *Device) Reset(cfg Config) bool {
	cfg.fillDefaults()
	if cfg.Geo != d.Cfg.Geo || cfg.Audit != d.Cfg.Audit {
		return false
	}
	d.Cfg = cfg
	for _, b := range d.Banks {
		b.buildPipeline(&d.Cfg)
		b.clearPRAC()
		if b.Ledger != nil {
			b.Ledger.threshold = cfg.AuditThreshold
			b.Ledger.Reset()
		}
	}
	if cfg.Mode == ModePRAC {
		d.allocPRAC()
	}
	return true
}

// Tracker exposes the bank's tracker (used by attack harnesses).
func (b *Bank) Tracker() tracker.Tracker { return b.trk }

// SAUMActive reports whether a subarray is under mitigation at time now.
func (b *Bank) SAUMActive(now clk.Tick) bool {
	return b.saum >= 0 && now < b.saumUntil
}

// SAUM returns the subarray under mitigation (-1 if none) and its busy-until
// time.
func (b *Bank) SAUM() (int, clk.Tick) { return b.saum, b.saumUntil }

// Activate attempts a demand activation of row at time now. row must be
// below the configured RowsPerBank: the ledger and the PRAC counters are
// flat per-row arrays (as the hardware's are), so an out-of-range row is a
// harness addressing bug, reported here rather than as a raw index panic
// deep in the bookkeeping.
func (b *Bank) Activate(now clk.Tick, row uint32) ActResult {
	if int(row) >= b.cfg.Geo.RowsPerBank {
		panic(fmt.Sprintf("dram: ACT row %d out of range (bank has %d rows)",
			row, b.cfg.Geo.RowsPerBank))
	}
	var res ActResult
	if b.cfg.Mode == ModeAutoRFM && b.SAUMActive(now) &&
		b.cfg.Geo.Subarray(row) == b.saum {
		// Conflict with the subarray under mitigation: the DRAM chip skips
		// the ACT and asserts ALERT (Section IV-A).
		b.Stats.Alerts++
		res.Alert = true
		return res
	}
	b.Stats.Acts++
	if b.Ledger != nil {
		b.Ledger.RecordAct(row)
	}
	switch b.cfg.Mode {
	case ModeRFM, ModeAutoRFM:
		b.trk.OnActivation(row)
	}
	if b.cfg.Mode == ModePRAC {
		if int(b.raisePRAC(row)) >= b.cfg.PRACETh && !b.aboPending {
			b.aboRow, b.aboPending = row, true
			b.Stats.ABOAlerts++
			res.ABO = true
		}
	}
	if b.cfg.Mode == ModeAutoRFM {
		b.actsInWindow++
		if b.actsInWindow >= b.cfg.TH {
			b.actsInWindow = 0
			b.pendingMit = true
			res.WindowClosed = true
		}
	}
	return res
}

// StartPendingMitigation is called by the MC at the precharge that closes an
// AutoRFM window. The bank asks its tracker for the aggressor, performs the
// victim refreshes, and marks that row's subarray as the SAUM for the
// mitigation time (NumRefreshes × tRC ≈ 200ns).
func (b *Bank) StartPendingMitigation(prechargeTime clk.Tick) {
	if !b.pendingMit {
		return
	}
	b.pendingMit = false
	sel := b.trk.SelectForMitigation()
	if !sel.OK {
		return
	}
	b.mitigate(sel)
	row := sel.Row
	b.saum = b.cfg.Geo.Subarray(row)
	dur := b.cfg.Timing.MitigationTime(b.policy.NumRefreshes())
	b.saumUntil = prechargeTime + dur
	b.Stats.SAUMBusy += dur
	if b.cfg.Trace != nil {
		b.cfg.Trace.Record(prechargeTime, dur, telemetry.KindMIT, telemetry.CauseAutoRFM, b.ID, row)
	}
}

// ExecuteRFM performs one mitigation under an explicit RFM command
// (ModeRFM); the MC has already stalled the bank for tRFM.
func (b *Bank) ExecuteRFM() {
	sel := b.trk.SelectForMitigation()
	if sel.OK {
		b.mitigate(sel)
	}
}

// ExecuteREF models one REF command: the periodic refresh of one row group,
// plus — in RFM mode — a borrowed-time mitigation (REF reduces RAA by RFMTH
// because the device mitigates during tRFC; Section II-E).
func (b *Bank) ExecuteREF(refIndex uint64) {
	if b.Ledger != nil {
		b.Ledger.RecordPeriodicRefresh(refIndex)
	}
	if ra, ok := b.trk.(tracker.REFAware); ok {
		ra.OnREF()
	}
	if b.cfg.Mode == ModeRFM {
		sel := b.trk.SelectForMitigation()
		if sel.OK {
			b.mitigate(sel)
		}
	}
}

// ExecutePRACBackoff performs the mitigation the device requested via ABO:
// the row whose counter crossed ETH has its neighbourhood refreshed and its
// counter reset. The MC has already stalled for the back-off time.
func (b *Bank) ExecutePRACBackoff() {
	if !b.aboPending {
		return
	}
	b.aboPending = false
	row := b.aboRow
	b.pracCounts[row] = 0
	b.mitigate(tracker.Selection{Row: row, Level: 1, OK: true})
}

// mitigate issues the policy's victim refreshes for sel and records them.
func (b *Bank) mitigate(sel tracker.Selection) {
	b.Stats.Mitigations++
	if sel.Level > 1 {
		b.Stats.TransitiveMits++
	}
	var victims []uint32
	if b.va != nil {
		// The victim list is consumed before mitigate returns, so it
		// appends into the bank's reusable buffer with the exact PRNG draws
		// of Victims.
		b.victimBuf = b.va.AppendVictims(b.victimBuf[:0], sel, b.cfg.Geo.RowsPerBank)
		victims = b.victimBuf
	} else {
		victims = b.policy.Victims(sel, b.cfg.Geo.RowsPerBank)
	}
	b.Stats.VictimRefreshes += uint64(len(victims))
	if b.Ledger != nil {
		for _, v := range victims {
			b.Ledger.RecordVictimRefresh(v)
		}
	}
	// Victim refreshes replenish PRAC rows too. Only in PRAC mode: the
	// counters a device keeps from an earlier PRAC run stay untouched.
	if b.cfg.Mode == ModePRAC {
		for _, v := range victims {
			b.pracCounts[v] = 0
		}
	}
}

// TotalStats sums the per-bank statistics.
func (d *Device) TotalStats() BankStats {
	var t BankStats
	for _, b := range d.Banks {
		t.Acts += b.Stats.Acts
		t.Alerts += b.Stats.Alerts
		t.Mitigations += b.Stats.Mitigations
		t.TransitiveMits += b.Stats.TransitiveMits
		t.VictimRefreshes += b.Stats.VictimRefreshes
		t.ABOAlerts += b.Stats.ABOAlerts
		t.SAUMBusy += b.Stats.SAUMBusy
	}
	return t
}

// TrackerTableStats sums tracker table occupancy across the banks whose
// tracker implements tracker.TableStats (telemetry gauges). Trackers that do
// not expose occupancy — and wrapped trackers, e.g. under fault injection —
// contribute nothing.
func (d *Device) TrackerTableStats() (live, budget int, spill int64) {
	for _, b := range d.Banks {
		if ts, ok := b.trk.(tracker.TableStats); ok {
			l, bu, s := ts.TableStats()
			live += l
			budget += bu
			spill += s
		}
	}
	return live, budget, spill
}

// MaxDamage returns the worst per-row damage observed by any bank's ledger,
// and the total number of audit failures. It panics if auditing is off.
func (d *Device) MaxDamage() (max uint32, failures uint64) {
	for _, b := range d.Banks {
		if b.Ledger == nil {
			panic("dram: MaxDamage without Audit enabled")
		}
		if b.Ledger.MaxDamage > max {
			max = b.Ledger.MaxDamage
		}
		failures += b.Ledger.Failures
	}
	return max, failures
}
