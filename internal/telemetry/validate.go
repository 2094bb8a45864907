package telemetry

// Whole-file validation for generated telemetry artifacts, tolerant of
// the damage a killed process actually leaves behind. The metrics stream
// is append-only JSON lines, so the one legitimate corruption is a torn
// final line (the writer died mid-record) — the same failure mode the
// result-store loader tolerates. Anything else — an empty file, a header
// that isn't the schema, a damaged interior line — is a real error and
// must fail loudly, not be skipped.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// FileReport summarizes a validated JSON-lines file.
type FileReport struct {
	// Lines counts the valid records.
	Lines int
	// Kinds counts the valid records by their "kind" field ("epoch",
	// "summary").
	Kinds map[string]int
	// TornTail reports that the final line was a torn partial write and
	// was tolerated rather than counted.
	TornTail bool
}

// ValidateFile validates a whole autorfm-metrics/v1 JSON-lines stream,
// checking each record with ValidateMetricsLine. A torn final line — invalid
// JSON where the writer was killed mid-record — is tolerated and reported
// via FileReport.TornTail. An empty file, a first line that is not the
// schema (wrong-schema header), and any damaged interior line are errors.
func ValidateFile(r io.Reader) (FileReport, error) {
	rep := FileReport{Kinds: map[string]int{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	type pending struct {
		line []byte
		n    int
	}
	var prev *pending // last scanned line, validated once we know it isn't the tail
	n := 0
	validate := func(p *pending) error {
		if err := ValidateMetricsLine(p.line); err != nil {
			return fmt.Errorf("line %d: %w", p.n, err)
		}
		rep.Lines++
		var rec struct{ Kind string }
		_ = json.Unmarshal(p.line, &rec) // ValidateMetricsLine has parsed it already
		rep.Kinds[rec.Kind]++
		return nil
	}
	for sc.Scan() {
		n++
		if prev != nil {
			if err := validate(prev); err != nil {
				return rep, err // interior damage is never a tear
			}
		}
		line := make([]byte, len(sc.Bytes()))
		copy(line, sc.Bytes())
		prev = &pending{line: line, n: n}
	}
	if err := sc.Err(); err != nil {
		return rep, fmt.Errorf("telemetry: reading JSON-lines file: %w", err)
	}
	if prev == nil {
		return rep, fmt.Errorf("telemetry: empty JSON-lines file")
	}
	if err := validate(prev); err != nil {
		// The final line gets the tear tolerance — but only for a line
		// that does not parse as JSON at all (a partial write). A line
		// that parses but fails the schema is corruption, and a torn
		// first line means the file holds no valid records.
		if json.Valid(prev.line) || rep.Lines == 0 {
			return rep, err
		}
		rep.TornTail = true
	}
	if rep.Lines == 0 {
		return rep, fmt.Errorf("telemetry: JSON-lines file holds no valid records")
	}
	return rep, nil
}

// ValidateTraceFile validates a Chrome trace-event JSON file, classifying
// the failure modes a crashed writer leaves: an empty file and a
// truncated document report as such instead of a generic parse error.
func ValidateTraceFile(data []byte) error {
	if len(bytes.TrimSpace(data)) == 0 {
		return fmt.Errorf("telemetry: empty trace file")
	}
	err := ValidateChromeTrace(data)
	if err == nil {
		return nil
	}
	// A syntax error at (or past) the end of the document is a truncated
	// file — the writer was killed mid-write; name it as such.
	var syn *json.SyntaxError
	if errors.As(err, &syn) && syn.Offset >= int64(len(bytes.TrimRight(data, " \t\r\n"))) {
		return fmt.Errorf("telemetry: trace file truncated at byte %d (writer killed mid-write?): %w", syn.Offset, err)
	}
	return err
}
