package sim

import (
	"math/bits"
	"testing"

	"autorfm/internal/dram"
	"autorfm/internal/fault"
	"autorfm/internal/workload"
)

// llcLineSpace is the line-address space of the Table IV LLC's 32-bit
// tags: with 8192 sets, every line below (2^32-1) << 13 fits.
const llcLineSpace = (1<<32 - 1) << 13

// FuzzConfigValidate asserts the sim.Run boundary contract: for any config
// a caller can assemble — valid or not — Run either simulates or returns an
// error. It must never panic. Resource-sized fields (cores, instructions,
// footprint) are folded into small ranges so each execution stays cheap,
// unless validation must reject them;
// validity-relevant fields (names, signs, probabilities, NaN-able floats)
// are passed through raw so the fuzzer explores the rejection paths.
//
// CI runs this for a short wall-clock smoke (-fuzz=FuzzConfigValidate
// -fuzztime=20s); without -fuzz the seed corpus runs as a normal test.
func FuzzConfigValidate(f *testing.F) {
	f.Add("bwaves", int64(5000), 4, "amd-zen", "fractal", "mint", uint64(1), 2,
		25.0, 0.3, 128, 0.5, 2, 0.1, 1, 64, 0.0, 0.0, 0)
	f.Add("", int64(-1), -4, "bogus", "", "twice", uint64(0), -4,
		-1.0, 1.5, -64, 2.0, -1, -0.5, -1, -2, 2.0, -1.0, -3)
	f.Add("mcf", int64(0), 0, "rubix", "recursive", "pride", uint64(7), 0,
		2000.0, 0.0, 1<<30, 0.9, 70000, 1.0, 1<<21, 8, 0.5, 0.5, 2)
	f.Add("lbm", int64(5000), 4, "amd-zen", "fractal", "mint", uint64(2), 4096,
		25.0, 0.3, 1<<20, 0.5, 2, 0.1, 1, 64, 0.0, 0.0, 0)
	// PRAC mode (seed % 5 == 3) at the largest ETh the 16-bit counters
	// hold, and one past it.
	f.Add("lbm", int64(3000), 4, "amd-zen", "fractal", "mint", uint64(3), 1,
		25.0, 0.3, 128, 0.5, 2, 0.1, 1, 65535, 0.0, 0.0, 0)
	f.Add("lbm", int64(3000), 4, "amd-zen", "fractal", "mint", uint64(3), 1,
		25.0, 0.3, 128, 0.5, 2, 0.1, 1, 65536, 0.0, 0.0, 0)

	f.Fuzz(func(t *testing.T, name string, instr int64, th int,
		mapping, policy, trk string, seed uint64, cores int,
		memPKI, writeFrac float64, footprintMB int, seqFrac float64,
		streams int, depFrac float64, burst, pracETh int,
		actMiss, dropMit float64, panicAfter int) {

		cfg := Config{
			Workload: workload.Profile{
				Name:        name,
				MemPKI:      memPKI,
				WriteFrac:   writeFrac,
				FootprintMB: footprintMB,
				SeqFrac:     seqFrac,
				Streams:     streams,
				DepFrac:     depFrac,
				Burst:       burst,
			},
			Cores: cores,
			// Keep the simulated work tiny; sign and zero still vary.
			InstructionsPerCore: instr % 5000,
			Mode:                dram.Mode(int(seed % 5)), // includes one invalid mode
			TH:                  th,
			Mapping:             mapping,
			Policy:              policy,
			Tracker:             trk,
			PRACETh:             pracETh,
			Seed:                seed,
			Fault: fault.Config{
				Seed:               seed,
				ActMissProb:        actMiss,
				DropMitigationProb: dropMit,
				PanicAfterActs:     panicAfter,
			},
		}
		// Oversized footprints are rejected by validation (that path is
		// worth fuzzing); cap only the valid range so accepted configs
		// don't allocate gigabytes. Likewise a positive core count whose
		// footprints overflow the LLC's tags together is passed raw; other
		// positive counts are folded to 1–3.
		fp := cfg.Workload.FootprintMB
		if fp > 0 && fp <= 1<<20 {
			hi, lo := bits.Mul64(uint64(max(cores, 0)), uint64(fp)<<14)
			if hi == 0 && lo <= llcLineSpace {
				cfg.Workload.FootprintMB = 1 + fp%64
				if cores > 0 {
					cfg.Cores = 1 + cores%3
				}
			}
		} else if cores > 0 {
			cfg.Cores = 1 + cores%3
		}
		if cfg.Workload.Streams > 0 && cfg.Workload.Streams <= 1<<16 {
			cfg.Workload.Streams = cfg.Workload.Streams % 16
		}
		// PanicAfterActs is a deliberate chaos panic, not an input-handling
		// bug; the fuzz contract covers accidental panics only.
		if cfg.Fault.PanicAfterActs > 0 {
			cfg.Fault.PanicAfterActs = 0
		}
		// A zero target takes the (expensive) 1M-instruction default; the
		// default path is covered by the regular tests, so keep fuzz cheap.
		if cfg.InstructionsPerCore == 0 {
			cfg.InstructionsPerCore = 1000
		}

		defer func() {
			if v := recover(); v != nil {
				t.Fatalf("Run panicked on %+v: %v", cfg, v)
			}
		}()
		_, _ = Run(cfg)
	})
}
