package telemetry_test

// CI's observability smoke and dist-drill jobs generate metrics, trace and
// span files and flight records with the real binaries, then run this test
// against them:
//
//	AUTORFM_METRICS_FILE=m.jsonl AUTORFM_TRACE_FILE=t.json \
//	AUTORFM_SPANS_FILE=spans.jsonl AUTORFM_FLIGHT_DIR=store.flight \
//	    go test -run TestValidateFiles ./internal/telemetry
//
// Keeping the validator a Go test keeps CI free of external JSON tooling
// and keeps the schema check identical to what the unit tests enforce.

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"autorfm/internal/telemetry"
)

// validateLinesFile runs the JSON-lines file validator over path and
// fails on any damage, including a torn final line.
func validateLinesFile(t *testing.T, path string, validateLine func([]byte) error) telemetry.FileReport {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := telemetry.ValidateFile(f, validateLine)
	if err != nil {
		t.Errorf("%s: %v", path, err)
	}
	if rep.TornTail {
		t.Errorf("%s: torn final line (writer killed mid-record?)", path)
	}
	t.Logf("%s: %d valid lines %v", path, rep.Lines, rep.Kinds)
	return rep
}

func TestValidateFiles(t *testing.T) {
	mf := os.Getenv("AUTORFM_METRICS_FILE")
	tf := os.Getenv("AUTORFM_TRACE_FILE")
	sf := os.Getenv("AUTORFM_SPANS_FILE")
	fd := os.Getenv("AUTORFM_FLIGHT_DIR")
	if mf == "" && tf == "" && sf == "" && fd == "" {
		t.Skip("set AUTORFM_METRICS_FILE / AUTORFM_TRACE_FILE / AUTORFM_SPANS_FILE / AUTORFM_FLIGHT_DIR to validate generated telemetry")
	}
	if mf != "" {
		if rep := validateLinesFile(t, mf, telemetry.ValidateMetricsLine); rep.Kinds["epoch"] == 0 {
			t.Errorf("%s holds no epoch records (%d lines)", mf, rep.Lines)
		}
	}
	if tf != "" {
		data, err := os.ReadFile(tf)
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateTraceFile(data); err != nil {
			t.Errorf("%s: %v", tf, err)
		}
		t.Logf("%s: %d bytes of valid Chrome trace JSON", tf, len(data))
	}
	if sf != "" {
		rep := validateLinesFile(t, sf, telemetry.ValidateSpanLine)
		for _, required := range []string{telemetry.SpanSubmit, telemetry.SpanLease, telemetry.SpanUpload} {
			if rep.Kinds[required] == 0 {
				t.Errorf("%s: no %q spans — the log does not cover a job lifecycle", sf, required)
			}
		}
	}
	if fd != "" {
		entries, err := os.ReadDir(fd)
		if err != nil {
			t.Fatal(err)
		}
		records := 0
		for _, e := range entries {
			if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
				continue
			}
			data, err := os.ReadFile(filepath.Join(fd, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := telemetry.ValidateFlight(data); err != nil {
				t.Errorf("%s: %v", e.Name(), err)
			}
			records++
		}
		if records == 0 {
			t.Errorf("%s holds no flight records", fd)
		}
		t.Logf("%s: %d valid flight records", fd, records)
	}
}

// validEpochLine is a fixture record passing ValidateMetricsLine.
const validEpochLine = `{"schema":"autorfm-metrics/v1","kind":"epoch","epoch":0,` +
	`"t_start_ns":0,"t_end_ns":3900,"acts":1,"row_hits":0,"reads":1,"writes":0,` +
	`"refs":0,"rfms":0,"alerts":0,"prac_backoffs":0,"mitigations":0,` +
	`"victim_refreshes":0,"abo_alerts":0,"queue_depth":0,"queue_depth_max":0,` +
	`"tracker_live":0,"tracker_budget":0,"tracker_spill":0}`

// validSpanLine is a fixture record passing ValidateSpanLine.
const validSpanLine = `{"schema":"autorfm-spans/v1","key":"job-a","name":"lease","worker":"w1",` +
	`"attempt":1,"lease_id":3,"t_start_us":100,"t_end_us":900,"detail":"result"}`

// TestValidateMetricsFileDamage: the JSON-lines file validator tolerates
// exactly the damage a killed writer leaves (a torn final line) and
// rejects everything else — empty files, wrong-schema headers, damaged
// interior lines — for the metrics stream and the span log alike.
func TestValidateMetricsFileDamage(t *testing.T) {
	torn := validEpochLine[:40] // cut mid-record: not valid JSON
	tornSpan := validSpanLine[:50]
	cases := []struct {
		name     string
		data     string
		spans    bool // validate as a span log instead of a metrics stream
		wantErr  bool
		wantTorn bool
		wantN    int
	}{
		{name: "clean", data: validEpochLine + "\n", wantN: 1},
		{name: "clean no trailing newline", data: validEpochLine, wantN: 1},
		{name: "torn last line", data: validEpochLine + "\n" + torn, wantTorn: true, wantN: 1},
		{name: "torn last line after newline-terminated record", data: validEpochLine + "\n" + torn + "\n", wantTorn: true, wantN: 1},
		{name: "empty file", data: "", wantErr: true},
		{name: "whitespace only", data: "\n", wantErr: true},
		{name: "wrong-schema header", data: `{"schema":"other/v2","kind":"epoch"}` + "\n" + validEpochLine + "\n", wantErr: true},
		{name: "torn first and only line", data: torn, wantErr: true},
		{name: "damaged interior line", data: validEpochLine + "\n" + torn + "\n" + validEpochLine + "\n", wantErr: true},
		{name: "valid JSON but bad schema tail", data: validEpochLine + "\n" + `{"schema":"autorfm-metrics/v1","kind":"bogus"}`, wantErr: true},
		{name: "spans clean", spans: true, data: validSpanLine + "\n" + validSpanLine + "\n", wantN: 2},
		{name: "spans torn last line", spans: true, data: validSpanLine + "\n" + tornSpan, wantTorn: true, wantN: 1},
		{name: "spans damaged interior line", spans: true, data: validSpanLine + "\n" + tornSpan + "\n" + validSpanLine + "\n", wantErr: true},
		{name: "spans wrong schema", spans: true, data: strings.Replace(validSpanLine, "spans/v1", "spans/v9", 1) + "\n", wantErr: true},
		{name: "spans metrics line", spans: true, data: validEpochLine + "\n", wantErr: true},
		{name: "spans empty file", spans: true, data: "", wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			validateLine := telemetry.ValidateMetricsLine
			if tc.spans {
				validateLine = telemetry.ValidateSpanLine
			}
			rep, err := telemetry.ValidateFile(strings.NewReader(tc.data), validateLine)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("validated, want error (report %+v)", rep)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if rep.TornTail != tc.wantTorn {
				t.Fatalf("TornTail = %v, want %v", rep.TornTail, tc.wantTorn)
			}
			if rep.Lines != tc.wantN {
				t.Fatalf("Lines = %d, want %d", rep.Lines, tc.wantN)
			}
		})
	}
}

// TestValidateTraceFileDamage: the trace validator names empty and
// truncated files instead of reporting a generic JSON error.
func TestValidateTraceFileDamage(t *testing.T) {
	var buf bytes.Buffer
	tr := telemetry.NewCommandTrace(16)
	tr.Record(100, 10, telemetry.KindACT, telemetry.CauseDemand, 0, 7)
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if err := telemetry.ValidateTraceFile(whole); err != nil {
		t.Fatalf("intact trace rejected: %v", err)
	}
	if err := telemetry.ValidateTraceFile(nil); err == nil || !strings.Contains(err.Error(), "empty") {
		t.Fatalf("empty file error = %v, want named empty-file error", err)
	}
	cut := whole[:len(whole)/2]
	err := telemetry.ValidateTraceFile(cut)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated file error = %v, want named truncation error", err)
	}
	// Interior damage is not truncation: don't mislabel it.
	bad := bytes.Replace(whole, []byte(`"ph"`), []byte(`"p h`), 1)
	err = telemetry.ValidateTraceFile(bad)
	if err == nil {
		t.Fatal("damaged trace validated")
	}
}

// FuzzValidateLine feeds arbitrary bytes to the three line validators and
// to the JSON-lines file validator. Any input may be rejected; none may
// panic. Seeds are the golden logs and flight record plus the fixtures
// above.
func FuzzValidateLine(f *testing.F) {
	f.Add([]byte(validEpochLine))
	f.Add([]byte(validSpanLine))
	for _, name := range []string{"golden_metrics.jsonl", "golden_span_log.jsonl", "golden_flight.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		for sc.Scan() {
			f.Add(append([]byte(nil), sc.Bytes()...))
		}
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		_ = telemetry.ValidateMetricsLine(line)
		_ = telemetry.ValidateSpanLine(line)
		_ = telemetry.ValidateFlight(line)
		_, _ = telemetry.ValidateFile(bytes.NewReader(line), telemetry.ValidateMetricsLine)
		_, _ = telemetry.ValidateFile(bytes.NewReader(line), telemetry.ValidateSpanLine)
	})
}
