package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"autorfm/internal/fault"
	"autorfm/internal/mitigation"
	"autorfm/internal/plugin"
	"autorfm/internal/tracker"
)

type experiment struct {
	ID     string `json:"id"`
	WallNS int64  `json:"wall_ns"`
}

type report struct {
	Schema      string       `json:"schema"`
	Experiments []experiment `json:"experiments"`
}

// knownSchemas are the report versions this tool understands. v2 extends v1
// with process-level fields (peak heap, total events/sec) that the wall-time
// comparison does not consume, so both load identically.
var knownSchemas = map[string]bool{
	"autorfm-bench/v1": true,
	"autorfm-bench/v2": true,
}

func load(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !knownSchemas[r.Schema] {
		return nil, fmt.Errorf("%s: unknown schema %q (want autorfm-bench/v1 or v2)", path, r.Schema)
	}
	return &r, nil
}

func main() {
	tolerance := flag.Float64("tolerance", 0.25, "maximum allowed fractional wall-time regression per experiment")
	minWall := flag.Duration("min-wall", 50*time.Millisecond, "experiments faster than this in both reports are noise, never a failure")
	listPl := flag.Bool("list-plugins", false, "list the registered trackers, policies and fault injectors this build compares against, and exit")
	flag.Parse()
	if *listPl {
		plugin.FprintCatalog(os.Stdout, tracker.Catalog(), mitigation.Catalog(), fault.Catalog())
		return
	}
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-tolerance 0.25] baseline.json fresh.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	fresh, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	if diff(os.Stdout, base, fresh, *tolerance, *minWall) {
		fmt.Fprintf(os.Stderr, "benchdiff: wall-time regression beyond %.0f%% tolerance\n", 100**tolerance)
		os.Exit(1)
	}
}

// diff renders the per-experiment comparison to w and reports whether any
// experiment regressed beyond tolerance.
func diff(w io.Writer, base, fresh *report, tolerance float64, minWall time.Duration) (failed bool) {
	// baseline is consumed as rows match; leftovers report "only in
	// baseline".
	baseline := make(map[string]int64, len(base.Experiments))
	for _, e := range base.Experiments {
		baseline[e.ID] = e.WallNS
	}

	fmt.Fprintf(w, "%-16s %14s %14s %9s\n", "exp", "base(ms)", "fresh(ms)", "delta")
	for _, e := range fresh.Experiments {
		bNS, ok := baseline[e.ID]
		if !ok {
			fmt.Fprintf(w, "%-16s %14s %14.3f %9s\n", e.ID, "-", float64(e.WallNS)/1e6, "new")
			continue
		}
		delete(baseline, e.ID)
		delta := float64(e.WallNS-bNS) / float64(bNS)
		mark := ""
		switch {
		case delta <= tolerance:
		case bNS < minWall.Nanoseconds() && e.WallNS < minWall.Nanoseconds():
			mark = "  (noise)"
		default:
			mark = "  REGRESSED"
			failed = true
		}
		fmt.Fprintf(w, "%-16s %14.3f %14.3f %+8.1f%%%s\n", e.ID, float64(bNS)/1e6, float64(e.WallNS)/1e6, 100*delta, mark)
	}
	for id := range baseline {
		fmt.Fprintf(w, "%-16s: only in baseline (skipped)\n", id)
	}
	return failed
}
