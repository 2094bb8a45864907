package workload

import (
	"fmt"
	"math"

	"autorfm/internal/cpu"
	"autorfm/internal/rng"
)

// Profile describes one workload's generator parameters plus the published
// Table V reference statistics used for validation and reporting.
type Profile struct {
	Name  string
	Suite string // "spec", "gap", or "stream"

	// MemPKI is the rate of LLC-level memory accesses per kilo-instruction
	// (post L1/L2 filtering). Derived from the ACT-PKI target: with a
	// streaming/irregular footprint far exceeding the LLC, every access
	// misses, and each store adds a writeback, so ACT-PKI ≈ MemPKI×(1+w).
	MemPKI    float64
	WriteFrac float64
	// FootprintMB is the per-core working set.
	FootprintMB int
	// SeqFrac is the fraction of accesses following sequential streams;
	// the rest are uniform random over the footprint.
	SeqFrac float64
	// Streams is the number of concurrent sequential streams.
	Streams int
	// Burst is the mean number of accesses arriving back-to-back (gap 0)
	// before the inter-burst gap. Misses cluster in real programs (loop
	// bodies touch several lines, then compute); burstiness raises the
	// memory-level parallelism inside the ROB window without changing the
	// mean access rate. 1 = no clustering.
	Burst int
	// DepFrac is the fraction of loads whose address depends on the
	// previous load (pointer chasing). It controls memory-level
	// parallelism: streaming kernels have ≈0, graph analytics and mcf are
	// dependence-dominated. Tuned so the per-bank ACT-per-tREFI matches
	// Table V.
	DepFrac float64

	// TargetACTPKI and TargetACTPerTREFI are the Table V reference values.
	TargetACTPKI      float64
	TargetACTPerTREFI float64
}

// cal is a per-workload calibration multiplier on MemPKI, measured once
// against the baseline simulation so the simulated ACT-PKI lands on the
// Table V target (write-allocate fills, in-flight writes at run end, and
// MSHR merges make the naive 1+w estimate a few percent off).
func prof(name, suite string, actPKI, actTREFI, writeFrac float64, fpMB int, seqFrac float64, streams int, depFrac float64, burst int, cal float64) Profile {
	return Profile{
		Name:              name,
		Suite:             suite,
		MemPKI:            cal * actPKI / (1 + writeFrac),
		WriteFrac:         writeFrac,
		FootprintMB:       fpMB,
		SeqFrac:           seqFrac,
		Streams:           streams,
		DepFrac:           depFrac,
		Burst:             burst,
		TargetACTPKI:      actPKI,
		TargetACTPerTREFI: actTREFI,
	}
}

// Profiles returns the 21 workloads of Table V in paper order.
func Profiles() []Profile {
	return []Profile{
		// SPEC-2017 (11 benchmarks with ≥1 ACT-PKI).
		prof("bwaves", "spec", 35.7, 27.7, 0.30, 512, 0.85, 8, 0.50, 1, 1.11),
		prof("fotonik3d", "spec", 26.7, 33.0, 0.30, 512, 0.85, 6, 0.15, 1, 1.13),
		prof("lbm", "spec", 25.5, 34.4, 0.45, 512, 0.90, 8, 0.30, 1, 1.15),
		prof("parest", "spec", 20.0, 28.4, 0.25, 256, 0.60, 4, 0.15, 1, 1.11),
		prof("mcf", "spec", 22.0, 31.4, 0.20, 1024, 0.15, 2, 0.10, 10, 1.03),
		prof("roms", "spec", 13.4, 26.7, 0.35, 512, 0.90, 6, 0.25, 1, 1.17),
		prof("omnetpp", "spec", 9.5, 29.0, 0.25, 256, 0.20, 2, 0.00, 12, 1.10),
		prof("xz", "spec", 5.9, 25.0, 0.30, 256, 0.40, 2, 0.00, 12, 1.14),
		prof("cam4", "spec", 4.2, 18.2, 0.30, 256, 0.50, 4, 0.05, 8, 1.20),
		prof("blender", "spec", 1.4, 9.7, 0.25, 128, 0.50, 2, 0.00, 10, 1.14),
		prof("wrf", "spec", 1.0, 6.6, 0.30, 128, 0.60, 4, 0.00, 6, 1.12),
		// GAP graph analytics: irregular, large footprints.
		prof("conncomp", "gap", 80.7, 35.0, 0.05, 1024, 0.10, 2, 0.10, 3, 1.00),
		prof("pagerank", "gap", 40.9, 31.5, 0.10, 1024, 0.15, 2, 0.10, 4, 1.02),
		prof("tricount", "gap", 35.2, 26.1, 0.02, 1024, 0.20, 2, 0.15, 4, 1.03),
		prof("bfs", "gap", 31.1, 30.4, 0.10, 1024, 0.15, 2, 0.10, 4, 1.03),
		prof("bc", "gap", 16.0, 26.3, 0.10, 1024, 0.20, 2, 0.08, 8, 1.06),
		prof("ssspath", "gap", 9.0, 23.9, 0.10, 1024, 0.15, 2, 0.05, 10, 1.05),
		// STREAM kernels: pure sequential.
		prof("add", "stream", 12.1, 29.2, 1.0/3, 768, 1.0, 3, 0.15, 2, 1.18),
		prof("triad", "stream", 10.3, 28.6, 1.0/3, 768, 1.0, 3, 0.12, 2, 1.17),
		prof("copy", "stream", 9.3, 27.8, 0.50, 512, 1.0, 2, 0.25, 2, 1.27),
		prof("scale", "stream", 7.6, 27.1, 0.50, 512, 1.0, 2, 0.20, 2, 1.27),
	}
}

// ByName looks up a profile by workload name.
func ByName(name string) (Profile, error) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown workload %q", name)
}

// Names returns the workload names in paper order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

const linesPerMB = (1 << 20) / 64

// inlineStreams is how many stream heads a Generator holds in itself.
// Every Table V profile has 2 to 8 streams; a profile with more keeps its
// heads in a slice of their own.
const inlineStreams = 8

// Generator produces an infinite cpu.Stream realising a Profile. It is one
// object: its PRNG and up to inlineStreams stream heads live inside it, so
// NewGenerator allocates once and Reset not at all. A Generator must not be
// copied.
type Generator struct {
	prof      Profile
	r         rng.Source
	base      uint64   // core's first line
	lines     uint64   // footprint in lines
	streams   []uint64 // the stream heads: inline[:n], or a slice of their own
	inline    [inlineStreams]uint64
	nextStr   int
	meanGap   float64
	burstLeft int
}

// NewGenerator builds the stream for one core. Core IDs partition the
// address space into disjoint footprints (rate mode).
func NewGenerator(p Profile, coreID int, seed uint64) *Generator {
	g := &Generator{}
	g.Reset(p, coreID, seed)
	return g
}

// Reset reinitialises g to the stream NewGenerator(p, coreID, seed)
// returns, record for record, keeping a stream-head slice of its own when
// it is large enough.
func (g *Generator) Reset(p Profile, coreID int, seed uint64) {
	if p.MemPKI <= 0 {
		panic("workload: non-positive MemPKI")
	}
	lines := uint64(p.FootprintMB) * linesPerMB
	n := max(p.Streams, 1)
	streams := g.streams
	switch {
	case n <= inlineStreams:
		streams = g.inline[:n]
	case cap(streams) < n:
		streams = make([]uint64, n)
	default:
		streams = streams[:n]
	}
	*g = Generator{
		prof:    p,
		base:    uint64(coreID) * lines,
		lines:   lines,
		streams: streams,
		// Mean instructions between accesses, excluding the access itself.
		meanGap: 1000/p.MemPKI - 1,
	}
	g.r.Seed(seed ^ (uint64(coreID+1) * 0x5bd1e995))
	for i := range g.streams {
		g.streams[i] = uint64(g.r.Int63n(int64(lines)))
	}
}

// Next implements cpu.Stream. Gaps are geometrically distributed around the
// profile's mean; addresses follow a sequential stream with probability
// SeqFrac and are uniform random otherwise.
func (g *Generator) Next() (cpu.Record, bool) {
	var rec cpu.Record
	if g.burstLeft > 0 {
		g.burstLeft--
	} else if g.meanGap > 0 {
		burst := g.prof.Burst
		if burst < 1 {
			burst = 1
		}
		// Draw the burst that follows this gap; scale the gap so the mean
		// access rate stays MemPKI regardless of clustering.
		g.burstLeft = burst - 1
		if burst > 1 {
			g.burstLeft = g.r.Intn(2*burst - 1) // mean burst length ≈ burst
		}
		u := g.r.Float64()
		rec.Gap = int(-g.meanGap * float64(g.burstLeft+1) * math.Log(1-u))
	}
	rec.Write = g.r.Bernoulli(g.prof.WriteFrac)
	if !rec.Write {
		rec.DependsPrev = g.r.Bernoulli(g.prof.DepFrac)
	}
	if g.r.Bernoulli(g.prof.SeqFrac) {
		i := g.nextStr
		g.nextStr = (g.nextStr + 1) % len(g.streams)
		g.streams[i] = (g.streams[i] + 1) % g.lines
		rec.Line = g.base + g.streams[i]
	} else {
		rec.Line = g.base + uint64(g.r.Int63n(int64(g.lines)))
	}
	return rec, true
}

var _ cpu.Stream = (*Generator)(nil)
