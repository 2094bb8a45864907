package clk

import "fmt"

// Tick is the simulation time unit: one CPU cycle at 4 GHz (0.25 ns).
type Tick int64

// TicksPerNS is the number of Ticks per nanosecond.
const TicksPerNS = 4

// Never is a sentinel time that is later than any reachable simulation time.
const Never Tick = 1 << 62

// NS converts a duration in nanoseconds to Ticks.
func NS(ns int64) Tick { return Tick(ns * TicksPerNS) }

// US converts a duration in microseconds to Ticks.
func US(us int64) Tick { return NS(us * 1000) }

// MS converts a duration in milliseconds to Ticks.
func MS(ms int64) Tick { return US(ms * 1000) }

// Nanoseconds converts t to (possibly fractional) nanoseconds.
func (t Tick) Nanoseconds() float64 { return float64(t) / TicksPerNS }

// Seconds converts t to seconds.
func (t Tick) Seconds() float64 { return t.Nanoseconds() * 1e-9 }

// String renders a Tick as nanoseconds for diagnostics.
func (t Tick) String() string {
	if t == Never {
		return "never"
	}
	return fmt.Sprintf("%.2fns", t.Nanoseconds())
}

// Min returns the earlier of a and b.
func Min(a, b Tick) Tick {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of a and b.
func Max(a, b Tick) Tick {
	if a > b {
		return a
	}
	return b
}

// Timing holds the DRAM timing parameters of the simulated device, in Ticks.
// The zero value is not useful; construct with DDR5() or derive a variant.
type Timing struct {
	TRCD   Tick // ACT to column command
	TRP    Tick // precharge period
	TRAS   Tick // minimum row-open time
	TRC    Tick // ACT-to-ACT, same bank (tRAS + tRP)
	TCL    Tick // CAS latency (read)
	TBURST Tick // data-bus occupancy per 64B transfer
	TRTP   Tick // read to precharge
	TREFW  Tick // refresh window (retention period)
	TREFI  Tick // average interval between REF commands
	TRFC   Tick // REF execution time
	TRFM   Tick // RFM execution time (tRFC/2 per the paper)
	TRRD   Tick // ACT-to-ACT, different banks of one subchannel
	TFAW   Tick // four-activation window per subchannel
}

// DDR5 returns the DDR5 timings of Table I, plus standard derived column
// timings that the table omits (tCL, tBURST, tRTP) using common DDR5-4800
// values.
func DDR5() Timing {
	return Timing{
		TRCD:   NS(12),
		TRP:    NS(12),
		TRAS:   NS(36),
		TRC:    NS(48),
		TCL:    NS(14),
		TBURST: NS(2) + NS(1)/2, // BL16 on a 32-bit subchannel ≈ 2.5ns
		TRTP:   NS(8),
		TREFW:  MS(32),
		TREFI:  NS(3900),
		TRFC:   NS(410),
		TRFM:   NS(205),
		TRRD:   NS(2) + NS(1)/2, // tRRD_S at DDR5 speeds ≈ 2.5ns
		TFAW:   NS(10),
	}
}

// PRAC returns the timings of a PRAC-enabled device. Per Fig 13 of the paper,
// the per-row counter read-modify-write increases tRC by 10% (the precharge
// side absorbs the counter update).
func PRAC() Timing {
	t := DDR5()
	extra := t.TRC / 10
	t.TRC += extra
	t.TRP += extra // the RMW happens during/after precharge
	return t
}

// MitigationTime returns the time one Rowhammer mitigation keeps a subarray
// (AutoRFM) or bank (RFM accounting) busy when it performs nRefresh victim
// refreshes. Each victim refresh costs one tRC. With the paper's default of
// 4 victim refreshes this is ≈200ns.
func (t *Timing) MitigationTime(nRefresh int) Tick {
	return Tick(nRefresh) * t.TRC
}

// ActsPerTREFI returns the maximum number of activations a bank can perform
// within one tREFI, accounting for the tRFC spent refreshing (the paper
// computes 73 for DDR5).
func (t *Timing) ActsPerTREFI() int {
	return int((t.TREFI - t.TRFC) / t.TRC)
}
