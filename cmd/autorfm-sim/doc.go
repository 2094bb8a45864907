// Command autorfm-sim runs one workload under one mitigation configuration
// on the simulated 8-core DDR5 system and prints the performance and
// device statistics, optionally alongside the no-mitigation baseline.
//
// A replayed trace (-replay) that is truncated or holds a record the
// simulator cannot run (a gap above 2^31-1 instructions, or a line outside
// the simulated address space) fails the command with the record's index.
//
// Examples:
//
//	autorfm-sim -workload bwaves -mech autorfm -th 4 -mapping rubix
//	autorfm-sim -workload mcf -mech rfm -th 8 -instr 500000
//	autorfm-sim -record trace.arfm -workload lbm   # freeze a trace to disk
//	autorfm-sim -replay trace.arfm -mech autorfm   # drive the sim with it
//	autorfm-sim -tracker "mithril(entries=2048)" -faults "act-miss(p=0.01)"
//	autorfm-sim -workload bwaves -store results.jsonl  # shared memo store
//	autorfm-sim -list
//	autorfm-sim -list-plugins
package main
