package telemetry_test

// Golden-byte tests for every observability artifact whose bytes are a
// wire format: the two Chrome trace exports, the metrics and span
// JSON-lines logs, a flight record with its content address, the two
// Prometheus expositions, and the three expvar JSON documents. Each producer renders
// a fixed input; the test compares its output byte for byte against
// testdata/golden_<name>. The goldens are never rewritten by the test —
// a mismatch means a wire format changed.

import (
	"bytes"
	"encoding/json"
	"expvar"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autorfm/internal/clk"
	"autorfm/internal/stats"
	"autorfm/internal/telemetry"
)

// goldenCommandTrace is a 5-entry ring fed 7 commands, so it has wrapped
// (the two oldest are overwritten) and still holds a channel-track REF,
// an instant ALERT and commands on two banks.
func goldenCommandTrace() *telemetry.CommandTrace {
	tm := clk.DDR5()
	tr := telemetry.NewCommandTrace(5)
	tr.SetTiming(tm)
	tr.Record(0, tm.TRAS, telemetry.KindACT, telemetry.CauseDemand, 0, 1)
	tr.Record(tm.TRAS, tm.TRP, telemetry.KindPRE, telemetry.CauseDemand, 0, 1)
	tr.Record(clk.NS(40), tm.TBURST, telemetry.KindRD, telemetry.CauseDemand, 2, 17)
	tr.Record(clk.NS(55), 0, telemetry.KindALERT, telemetry.CauseAutoRFM, 2, 18)
	tr.Record(clk.NS(60), tm.TRFM, telemetry.KindMIT, telemetry.CauseAutoRFM, 2, 18)
	tr.Record(clk.NS(3900), tm.TRFC, telemetry.KindREF, telemetry.CauseREF, telemetry.ChannelTrack, 0)
	tr.Record(clk.NS(4300), tm.TBURST, telemetry.KindWR, telemetry.CauseDemand, 0, 9)
	return tr
}

// goldenSpans covers two workers, coordinator-side instants and a lease.
func goldenSpans() []telemetry.Span {
	return []telemetry.Span{
		{Key: "job-a", Name: telemetry.SpanSubmit, StartUS: 1_000_000},
		{Key: "job-a", Name: telemetry.SpanLease, Worker: "w2", Attempt: 1, LeaseID: 3, StartUS: 1_000_050, EndUS: 1_000_900, Detail: "result"},
		{Key: "job-a", Name: telemetry.SpanRun, Worker: "w2", StartUS: 1_000_100, EndUS: 1_000_800},
		{Key: "job-b", Name: telemetry.SpanHeartbeat, Worker: "w1", Attempt: 2, LeaseID: 4, StartUS: 1_000_400},
		{Key: "job-a", Name: telemetry.SpanUpload, Worker: "w2", Attempt: 1, LeaseID: 3, StartUS: 1_000_900, Detail: "flight 0123456789abcdef"},
	}
}

var goldenSweep = telemetry.SweepSnapshot{
	JobsDone: 12, JobsTotal: 40, CacheHits: 3, Failed: 1, Events: 9_876_543,
	EventsPerSec: 1_234_567.5, ElapsedMS: 8000, SimElapsedMS: 7500, ETAMS: 19_000,
}

var goldenCoord = telemetry.CoordSnapshot{
	Workers: 2, Leases: 3, JobsTotal: 40, JobsDone: 12, StoreHits: 5,
	Requeues: 1, Steals: 2, Uploads: 7, Duplicates: 1, Drained: true,
}

// goldenFleetSnapshot has a worker name and a family name that need
// Prometheus label escaping (quote, backslash, newline).
var goldenFleetSnapshot = telemetry.FleetSnapshot{
	Workers: []telemetry.WorkerView{
		{Worker: `w"1\`, LastSeenMS: 250, HeartbeatJitterMS: 1.5, LeaseAgeMS: 1000, EventsPerSec: 5e6, Events: 5_000_000, JobsDone: 1, Goroutines: 9, HeapBytes: 1 << 20},
		{Worker: "w2", LastSeenMS: 40},
	},
	Families: []telemetry.FamilyView{
		{Family: "autorfm-4/rubix", Jobs: 10, P50MS: 140, P99MS: 190, Stalls: 1},
		{Family: "tab5\nmisra", Jobs: 2, P50MS: 80, P99MS: 90},
	},
	Requeues: 1,
	Steals:   2,
}

// goldenFleet returns an aggregator in a fixed state: two workers (one
// with a heartbeat-derived rate), one family with ten completions, a
// flagged stall. Its requeue and steal counters belong to the
// coordinator, which fills them into the snapshot.
func goldenFleet() *telemetry.Fleet {
	fl := telemetry.NewFleet()
	now := time.Unix(1000, 0)
	fl.SetClock(func() time.Time { return now })
	fl.Heartbeat("w1", 0, &telemetry.WorkerMetrics{})
	now = now.Add(time.Second)
	fl.Heartbeat("w1", 2*time.Second, &telemetry.WorkerMetrics{Events: 5_000_000, JobsDone: 1, Goroutines: 9, HeapBytes: 1 << 20})
	fl.Seen("w2")
	for i := 0; i < 10; i++ {
		fl.JobDone("autorfm-4/rubix", time.Duration(100+i*10)*time.Millisecond)
	}
	fl.StallCheck("autorfm-4/rubix", time.Hour)
	now = now.Add(250 * time.Millisecond)
	return fl
}

func expvarJSON(name string) []byte { return []byte(expvar.Get(name).String()) }

func TestGoldenBytes(t *testing.T) {
	producers := []struct {
		name   string
		render func() ([]byte, error)
	}{
		{"command_trace.json", func() ([]byte, error) {
			var buf bytes.Buffer
			err := goldenCommandTrace().WriteChrome(&buf)
			return buf.Bytes(), err
		}},
		{"span_trace.json", func() ([]byte, error) {
			var buf bytes.Buffer
			err := telemetry.WriteChromeSpans(&buf, goldenSpans())
			return buf.Bytes(), err
		}},
		{"metrics.jsonl", func() ([]byte, error) {
			var buf bytes.Buffer
			s := telemetry.NewEpochSampler(&telemetry.MetricsConfig{Sink: telemetry.NewSink(&buf), Run: "run-1"})
			s.Sample(0, clk.NS(3900), telemetry.Counters{Acts: 120, RowHits: 30, Reads: 140, Writes: 10, REFs: 1, Mitigations: 2},
				telemetry.Gauges{QueueDepth: 4, QueueDepthMax: 2, TrackerLive: 7, TrackerBudget: 16, TrackerSpill: 1})
			s.Flush(clk.NS(3900), clk.NS(5000), telemetry.Counters{Acts: 150, RowHits: 31, Reads: 171, Writes: 12, REFs: 1, RFMs: 1, Alerts: 1, Mitigations: 3},
				telemetry.Gauges{QueueDepth: 1, QueueDepthMax: 1})
			h := stats.NewHistogram()
			for i := 0; i < 20; i++ {
				h.Add(i % 5)
			}
			s.Summary(clk.NS(5000), h)
			return buf.Bytes(), nil
		}},
		{"span_log.jsonl", func() ([]byte, error) {
			var buf bytes.Buffer
			err := telemetry.WriteSpanLog(&buf, goldenSpans())
			return buf.Bytes(), err
		}},
		{"flight.json", func() ([]byte, error) {
			fs, err := telemetry.NewFlightStore("")
			if err != nil {
				return nil, err
			}
			rec := &telemetry.FlightRecord{
				Key: "job-a", Worker: "w2", Attempt: 2, Error: "panic: injected chaos panic", TimeUS: 1_000_950,
				Stack: "goroutine 7 [running]:\nmain.main()", CommandsDropped: 3,
				Commands:    []telemetry.FlightCommand{{TickNS: 3900, DurNS: 410, Kind: "REF", Cause: "ref", Bank: -1}, {TickNS: 4300, Kind: "ALERT", Cause: "autorfm", Bank: 2, Row: 18}},
				LastMetrics: []byte(`{"schema":"autorfm-metrics/v1","kind":"epoch"}`),
			}
			id, err := fs.Put(rec)
			if err != nil {
				return nil, err
			}
			got, err := fs.Get(id)
			if err != nil {
				return nil, err
			}
			blob, err := json.Marshal(got)
			return append([]byte(id+"\n"), append(blob, '\n')...), err
		}},
		{"sweep.prom", func() ([]byte, error) {
			var buf bytes.Buffer
			err := telemetry.WriteSweepProm(&buf, goldenSweep)
			return buf.Bytes(), err
		}},
		{"fleet.prom", func() ([]byte, error) {
			var buf bytes.Buffer
			err := telemetry.WriteFleetProm(&buf, goldenFleetSnapshot)
			return buf.Bytes(), err
		}},
		{"expvar_sweep.json", func() ([]byte, error) {
			st := telemetry.NewSweepStatus()
			st.Update(goldenSweep.JobsDone, goldenSweep.JobsTotal, goldenSweep.CacheHits, goldenSweep.Failed,
				goldenSweep.Events, 8*time.Second, 2*time.Second, 19*time.Second)
			telemetry.PublishSweep(st.Snapshot)
			return expvarJSON("autorfm.sweep"), nil
		}},
		{"expvar_coord.json", func() ([]byte, error) {
			telemetry.PublishCoord(func() telemetry.CoordSnapshot { return goldenCoord })
			return expvarJSON("autorfm.coord"), nil
		}},
		{"expvar_fleet.json", func() ([]byte, error) {
			fl := goldenFleet()
			telemetry.PublishFleet(func() telemetry.FleetSnapshot {
				snap := fl.Snapshot()
				snap.Requeues, snap.Steals = 1, 2
				return snap
			})
			return expvarJSON("autorfm.fleet"), nil
		}},
	}
	for _, p := range producers {
		t.Run(p.name, func(t *testing.T) {
			got, err := p.render()
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", "golden_"+p.name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from its golden:\n got: %q\nwant: %q", p.name, got, want)
			}
		})
	}
}
