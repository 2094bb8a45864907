package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"autorfm/internal/clk"
	"autorfm/internal/stats"
)

func TestSinkWritesOneLinePerRecord(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	for i := 0; i < 5; i++ {
		s.WriteRecord(map[string]int{"i": i})
	}
	if got := s.Records(); got != 5 {
		t.Fatalf("Records() = %d, want 5", got)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("wrote %d lines, want 5", len(lines))
	}
	for i, l := range lines {
		var m map[string]int
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatalf("line %d invalid JSON: %v", i, err)
		}
		if m["i"] != i {
			t.Fatalf("line %d carries i=%d", i, m["i"])
		}
	}
}

// TestSinkConcurrentNoTearing hammers one sink from many goroutines (the
// -metrics sweep configuration: one sink shared by all worker jobs) and
// checks every emitted line is complete, parseable JSON. Run under -race
// this also proves the locking.
func TestSinkConcurrentNoTearing(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(&buf)
	var wg sync.WaitGroup
	const writers, per = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.WriteRecord(&EpochRecord{Schema: MetricsSchema, Kind: "epoch", Run: fmt.Sprintf("w%d", w), Epoch: i})
			}
		}(w)
	}
	wg.Wait()
	if got := s.Records(); got != writers*per {
		t.Fatalf("Records() = %d, want %d", got, writers*per)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		if err := ValidateMetricsLine(sc.Bytes()); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		n++
	}
	if n != writers*per {
		t.Fatalf("scanned %d lines, want %d", n, writers*per)
	}
}

type failWriter struct{ err error }

func (f *failWriter) Write([]byte) (int, error) { return 0, f.err }

func TestSinkLatchesFirstError(t *testing.T) {
	werr := errors.New("disk full")
	s := NewSink(&failWriter{err: werr})
	s.WriteRecord(map[string]int{"a": 1})
	s.WriteRecord(map[string]int{"b": 2})
	if !errors.Is(s.Err(), werr) {
		t.Fatalf("Err() = %v, want %v", s.Err(), werr)
	}
	if s.Records() != 0 {
		t.Fatalf("Records() = %d after write failures, want 0", s.Records())
	}
}

func TestEpochSamplerEmitsDeltas(t *testing.T) {
	var buf bytes.Buffer
	cfg := &MetricsConfig{Sink: NewSink(&buf), Run: "r"}
	s := NewEpochSampler(cfg)
	s.Sample(0, clk.NS(3900), Counters{Acts: 100, REFs: 1}, Gauges{QueueDepth: 3})
	s.Sample(clk.NS(3900), clk.NS(7800), Counters{Acts: 250, REFs: 2}, Gauges{QueueDepth: 1})
	var recs []EpochRecord
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		if err := ValidateMetricsLine(sc.Bytes()); err != nil {
			t.Fatal(err)
		}
		var r EpochRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 2 {
		t.Fatalf("emitted %d records, want 2", len(recs))
	}
	if recs[0].Acts != 100 || recs[1].Acts != 150 {
		t.Fatalf("acts deltas = %d, %d; want 100, 150", recs[0].Acts, recs[1].Acts)
	}
	if recs[1].REFs != 1 {
		t.Fatalf("refs delta = %d, want 1", recs[1].REFs)
	}
	if recs[0].Epoch != 0 || recs[1].Epoch != 1 {
		t.Fatalf("epoch indices = %d, %d; want 0, 1", recs[0].Epoch, recs[1].Epoch)
	}
	if recs[1].StartNS != 3900 || recs[1].EndNS != 7800 {
		t.Fatalf("epoch 1 spans [%v, %v], want [3900, 7800]", recs[1].StartNS, recs[1].EndNS)
	}
	// Gauges are point-in-time, not differenced.
	if recs[1].QueueDepth != 1 {
		t.Fatalf("epoch 1 queue depth = %d, want 1", recs[1].QueueDepth)
	}
}

func TestEpochSamplerFlush(t *testing.T) {
	var buf bytes.Buffer
	cfg := &MetricsConfig{Sink: NewSink(&buf), Run: "r"}
	s := NewEpochSampler(cfg)
	cum := Counters{Acts: 10}
	s.Sample(0, clk.NS(3900), cum, Gauges{})
	// Nothing happened since the boundary and no time passed: no record.
	s.Flush(clk.NS(3900), clk.NS(3900), cum, Gauges{})
	if s.Epochs() != 1 {
		t.Fatalf("empty flush emitted a record (epochs = %d)", s.Epochs())
	}
	// Residual activity: the partial epoch must be emitted.
	s.Flush(clk.NS(3900), clk.NS(4000), Counters{Acts: 12}, Gauges{})
	if s.Epochs() != 2 {
		t.Fatalf("flush with residual activity did not emit (epochs = %d)", s.Epochs())
	}
}

func TestSummaryRecord(t *testing.T) {
	var buf bytes.Buffer
	cfg := &MetricsConfig{Sink: NewSink(&buf), Run: "r"}
	s := NewEpochSampler(cfg)
	h := stats.NewHistogram()
	for i := 0; i < 100; i++ {
		h.Add(i % 10)
	}
	s.Summary(clk.NS(1000), h)
	line := bytes.TrimRight(buf.Bytes(), "\n")
	if err := ValidateMetricsLine(line); err != nil {
		t.Fatal(err)
	}
	var r SummaryRecord
	if err := json.Unmarshal(line, &r); err != nil {
		t.Fatal(err)
	}
	if r.Kind != "summary" || r.QueueSamples != 100 || r.QueueMax != 9 {
		t.Fatalf("summary = %+v", r)
	}
	if r.QueueP50 != 4 {
		t.Fatalf("p50 = %d, want 4 (uniform 0..9)", r.QueueP50)
	}
	// A nil histogram emits nothing.
	before := cfg.Sink.Records()
	s.Summary(clk.NS(2000), nil)
	if cfg.Sink.Records() != before {
		t.Fatal("nil-histogram Summary emitted a record")
	}
}

func TestValidateMetricsLineRejects(t *testing.T) {
	cases := []struct {
		name string
		line string
	}{
		{"garbage", "not json"},
		{"wrong schema", `{"schema":"autorfm-metrics/v0","kind":"epoch"}`},
		{"unknown kind", `{"schema":"autorfm-metrics/v1","kind":"blob"}`},
		{"missing field", `{"schema":"autorfm-metrics/v1","kind":"epoch","epoch":0}`},
		{"negative field", `{"schema":"autorfm-metrics/v1","kind":"summary","epochs":-1,"t_end_ns":0,"queue_samples":0,"queue_p50":0,"queue_p90":0,"queue_p99":0,"queue_max":0}`},
	}
	for _, c := range cases {
		if err := ValidateMetricsLine([]byte(c.line)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestCommandTraceRingWrap(t *testing.T) {
	tr := NewCommandTrace(4)
	for i := 0; i < 7; i++ {
		tr.Record(clk.Tick(i), 0, KindACT, CauseDemand, i, uint32(i))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len() = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 3 {
		t.Fatalf("Dropped() = %d, want 3", tr.Dropped())
	}
	cmds := tr.Commands()
	for i, c := range cmds {
		want := clk.Tick(i + 3) // oldest retained is the 4th record
		if c.Tick != want {
			t.Fatalf("Commands()[%d].Tick = %v, want %v", i, c.Tick, want)
		}
	}
}

func TestTraceRecordZeroAllocs(t *testing.T) {
	tr := NewCommandTrace(1024)
	allocs := testing.AllocsPerRun(2000, func() {
		tr.Record(1000, 144, KindACT, CauseDemand, 3, 42)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f/op, want 0", allocs)
	}
}

func TestWriteChromeRoundTrip(t *testing.T) {
	tr := NewCommandTrace(64)
	tr.SetTiming(clk.DDR5())
	tm := clk.DDR5()
	tr.Record(0, tm.TRAS, KindACT, CauseDemand, 0, 7)
	tr.Record(tm.TRAS, tm.TRP, KindPRE, CauseDemand, 0, 7)
	tr.Record(clk.NS(20), 0, KindALERT, CauseAutoRFM, 1, 9)
	tr.Record(clk.NS(3900), tm.TRFC, KindREF, CauseREF, ChannelTrack, 0)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("generated trace fails validation: %v\n%s", err, buf.String())
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	// 4 commands + 3 thread_name metadata events (banks 0, 1, channel).
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("trace has %d events, want 7", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for _, e := range doc.TraceEvents {
		byName[e.Name]++
		switch e.Name {
		case "ACT":
			if e.Ph != "X" || e.TS != 0 || e.Dur != tm.TRAS.Nanoseconds()/1000 {
				t.Fatalf("ACT event = %+v", e)
			}
		case "ALERT":
			if e.Ph != "i" {
				t.Fatalf("ALERT should be instant, got ph=%q", e.Ph)
			}
		case "REF":
			if e.TID != 0 {
				t.Fatalf("REF should render on the channel track (tid 0), got %d", e.TID)
			}
		}
	}
	if byName["thread_name"] != 3 {
		t.Fatalf("thread_name events = %d, want 3", byName["thread_name"])
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"garbage", "nope"},
		{"empty", `{"traceEvents":[]}`},
		{"no name", `{"traceEvents":[{"ph":"X","ts":1,"pid":0,"tid":0}]}`},
		{"bad phase", `{"traceEvents":[{"name":"A","ph":"Z","ts":1,"pid":0,"tid":0}]}`},
		{"no ts", `{"traceEvents":[{"name":"A","ph":"X","pid":0,"tid":0}]}`},
		{"negative dur", `{"traceEvents":[{"name":"A","ph":"X","ts":1,"dur":-2,"pid":0,"tid":0}]}`},
	}
	for _, c := range cases {
		if err := ValidateChromeTrace([]byte(c.data)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestKindAndCauseNames(t *testing.T) {
	kinds := []CommandKind{KindACT, KindPRE, KindRD, KindWR, KindREF, KindRFM, KindALERT, KindMIT, KindABO}
	want := []string{"ACT", "PRE", "RD", "WR", "REF", "RFM", "ALERT", "MIT", "ABO"}
	for i, k := range kinds {
		if k.String() != want[i] {
			t.Errorf("kind %d = %q, want %q", i, k.String(), want[i])
		}
	}
	if got := CommandKind(200).String(); got != "kind(200)" {
		t.Errorf("out-of-range kind = %q", got)
	}
	if got := Cause(200).String(); got != "cause(200)" {
		t.Errorf("out-of-range cause = %q", got)
	}
}

func TestSweepStatus(t *testing.T) {
	st := NewSweepStatus()
	if snap := st.Snapshot(); snap.JobsTotal != 0 {
		t.Fatalf("fresh status = %+v", snap)
	}
	st.Update(3, 10, 1, 0, 4_000_000, 3*time.Second, 2*time.Second, 5*time.Second)
	snap := st.Snapshot()
	if snap.JobsDone != 3 || snap.JobsTotal != 10 || snap.CacheHits != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.EventsPerSec != 2_000_000 {
		t.Fatalf("events/sec = %v, want 2e6", snap.EventsPerSec)
	}
	if snap.ElapsedMS != 3000 || snap.SimElapsedMS != 2000 || snap.ETAMS != 5000 {
		t.Fatalf("elapsed/sim/eta = %d/%d/%d ms", snap.ElapsedMS, snap.SimElapsedMS, snap.ETAMS)
	}
	PublishSweep(st.Snapshot)
	var m map[string]interface{}
	if err := json.Unmarshal([]byte(expvar.Get("autorfm.sweep").String()), &m); err != nil {
		t.Fatalf("autorfm.sweep is not JSON: %v", err)
	}
	if m["jobs_done"].(float64) != 3 {
		t.Fatalf("autorfm.sweep = %s", expvar.Get("autorfm.sweep"))
	}
}

// TestPublishSweepRepointable checks that publishing twice does not panic
// (expvar forbids duplicate names) and that the expvar reads the most
// recently published status.
func TestPublishSweepRepointable(t *testing.T) {
	a, b := NewSweepStatus(), NewSweepStatus()
	PublishSweep(a.Snapshot)
	PublishSweep(b.Snapshot)
	b.Update(7, 9, 0, 0, 0, time.Second, time.Second, 0)
	var snap SweepSnapshot
	if err := json.Unmarshal([]byte(expvar.Get("autorfm.sweep").String()), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.JobsDone != 7 {
		t.Fatalf("published snapshot = %+v, want the latest status", snap)
	}
}

// TestMetricsHandlers: the /metrics handler serves the sweep snapshot as
// Prometheus text with the exposition-format content type.
func TestMetricsHandlers(t *testing.T) {
	st := NewSweepStatus()
	st.Update(3, 10, 1, 0, 42, time.Second, time.Second, 2*time.Second)
	rr := httptest.NewRecorder()
	MetricsHandler(func(w io.Writer) error { return WriteSweepProm(w, st.Snapshot()) }).
		ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("sweep /metrics content type %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		"autorfm_sweep_jobs_done 3",
		"autorfm_sweep_jobs_total 10",
		"autorfm_sweep_events_total 42",
		"autorfm_sweep_events_per_sec 42",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("sweep /metrics missing %q\n%s", want, body)
		}
	}
}

// TestNoPprofImport keeps net/http/pprof out of this package: the
// simulator links telemetry, and the pprof import registers /debug/pprof
// on DefaultServeMux as a side effect in every such binary. Commands that
// serve pprof import it themselves.
func TestNoPprofImport(t *testing.T) {
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value == `"net/http/pprof"` {
					t.Errorf("%s imports net/http/pprof", name)
				}
			}
		}
	}
}
