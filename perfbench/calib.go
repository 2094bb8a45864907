package main

import (
	"context"
	"crypto/sha256"
	"runtime/pprof"
	"time"
)

// calibRef is calibrate's best time on the reference host (2 vCPU Intel
// Xeon, go1.24.0 linux/amd64). End-to-end times are reported as seconds on
// that host: measured time × calibRef / the run's best calibration time.
const calibRef = 7000 * time.Microsecond

// calibEvery is how often a pass times the host between its jobs, so every
// run holds many calibrations whatever the length of its passes.
const calibEvery = 200 * time.Millisecond

// calibTable is about the size of the simulator's hot state (its LLC model
// and PRAC counters), so calibrate's walk competes for the host's shared
// cache and memory the way the simulator does.
var calibTable []uint64

// calibrate times a fixed piece of work that is independent of the
// simulator: hashing, which is bound by the CPU, then a random walk over
// calibTable, which is bound by memory. Other tenants of the host slow it
// down as they slow the simulator down, over the seconds and minutes that
// decide how fast a whole run goes. The walk starts from whatever the cache
// holds; a variant that first warmed the walk's lines tracked the
// simulator's slow periods worse on the reference host, and so did one
// that probed both CPUs at once.
func calibrate() time.Duration {
	if calibTable == nil {
		calibTable = make([]uint64, 1<<22) // 32 MiB
		for i := range calibTable {
			calibTable[i] = uint64(i) // fault every page in before any timing
		}
	}
	var buf [4096]byte
	t0 := time.Now()
	for k := 0; k < 1500; k++ {
		sum := sha256.Sum256(buf[:])
		buf[k%len(buf)] ^= sum[0]
	}
	idx, x := uint64(1), uint64(buf[0])
	mask := uint64(len(calibTable) - 1)
	for k := 0; k < 200_000; k++ {
		idx = idx*6364136223846793005 + 1442695040888963407
		x += calibTable[idx>>42]
		calibTable[(idx>>20)&mask] = x
	}
	return time.Since(t0)
}

// calibLabel marks calibration samples in CPU profiles, so the per-layer
// shares leave them out.
const calibLabel = "calibrate"

// calibrateDue times the host (see calibrate) if calibEvery has passed
// since the pass last did. Passes call it between jobs, when nothing else
// of theirs runs.
func (p *passOut) calibrateDue() {
	if time.Since(p.lastCalib) < calibEvery {
		return
	}
	pprof.Do(context.Background(), pprof.Labels("bench", calibLabel), func(context.Context) {
		p.probes = append(p.probes, calibrate())
	})
	p.lastCalib = time.Now()
}
