package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FlightSchema versions the flight-record JSON blob.
const FlightSchema = "autorfm-flight/v1"

// Bounds on the forensic payload: a flight record is a black box, not a
// full dump — it must stay small enough to ship inside one result upload
// and to persist for every failure of a large sweep.
const (
	// MaxFlightCommands caps the command-trace tail kept in the record.
	MaxFlightCommands = 64
	// MaxFlightStack caps the panic stack, in bytes.
	MaxFlightStack = 16 << 10
	// MaxFlightGoroutines caps the all-goroutines dump, in bytes.
	MaxFlightGoroutines = 64 << 10
	// MaxFlightMetricsLine caps the retained last metrics line, in bytes.
	MaxFlightMetricsLine = 8 << 10
)

// FlightCommand is one DRAM command of the trace tail, rendered with
// symbolic kind/cause names so the record is readable without the
// telemetry enum tables.
type FlightCommand struct {
	TickNS float64 `json:"t_ns"`
	DurNS  float64 `json:"dur_ns,omitempty"`
	Kind   string  `json:"kind"`
	Cause  string  `json:"cause"`
	Bank   int     `json:"bank"`
	Row    uint32  `json:"row,omitempty"`
}

// FlightRecord is the bounded forensic snapshot a worker dumps when a job
// dies (panic, timeout, or any error that becomes an ERR cell). It is
// uploaded with the failed result and persisted content-addressed next to
// the result store; the ERR footnote of a report references its ID.
type FlightRecord struct {
	Schema  string `json:"schema"`
	Key     string `json:"key"` // the job's canonical config key
	Worker  string `json:"worker,omitempty"`
	Error   string `json:"error"`        // the failure as the runner reported it
	TimeUS  int64  `json:"t_capture_us"` // wall clock at capture, Unix micros
	Attempt int    `json:"attempt,omitempty"`

	// Stack is the panicking goroutine's stack (from runner.PanicError),
	// truncated to MaxFlightStack.
	Stack string `json:"stack,omitempty"`
	// Goroutines is the all-goroutines dump at capture time, truncated to
	// MaxFlightGoroutines — the smoking gun for timeouts and deadlocks.
	Goroutines string `json:"goroutines,omitempty"`

	// Commands is the tail of the job's command-trace ring: the last DRAM
	// commands issued before death. CommandsDropped counts how many
	// earlier commands the bounded ring discarded.
	Commands        []FlightCommand `json:"commands,omitempty"`
	CommandsDropped uint64          `json:"commands_dropped,omitempty"`

	// LastMetrics is the final epoch record of the job's metrics stream
	// verbatim (autorfm-metrics/v1 JSON) — tracker occupancy and queue
	// gauges at the last epoch boundary before death.
	LastMetrics json.RawMessage `json:"last_metrics,omitempty"`

	// Profile is a parked goroutine profile (pprof debug=1 text) captured
	// earlier at the coordinator's stall request, if one was; it rides the
	// flight record so a stalled-then-dead (or stalled-then-finished) job
	// leaves the evidence of where it was spending its time.
	Profile string `json:"profile,omitempty"`

	// Runtime stats at capture.
	NumGoroutine int    `json:"num_goroutine,omitempty"`
	HeapBytes    uint64 `json:"heap_bytes,omitempty"`
}

// ID returns the record's content address: the first 16 hex digits of the
// SHA-256 of its canonical JSON. Stable across re-marshalling (Go struct
// field order is fixed).
func (f *FlightRecord) ID() string {
	buf, err := json.Marshal(f)
	if err != nil {
		return "invalid"
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:8])
}

// RenderCommands converts the tail of a telemetry command-trace ring into
// the flight record's bounded symbolic form.
func RenderCommands(tr *CommandTrace) ([]FlightCommand, uint64) {
	if tr == nil {
		return nil, 0
	}
	cmds := tr.Commands()
	dropped := tr.Dropped()
	if len(cmds) > MaxFlightCommands {
		dropped += uint64(len(cmds) - MaxFlightCommands)
		cmds = cmds[len(cmds)-MaxFlightCommands:]
	}
	out := make([]FlightCommand, len(cmds))
	for i, c := range cmds {
		out[i] = FlightCommand{
			TickNS: c.Tick.Nanoseconds(),
			DurNS:  c.Dur.Nanoseconds(),
			Kind:   c.Kind.String(),
			Cause:  c.Cause.String(),
			Bank:   int(c.Bank),
			Row:    c.Row,
		}
	}
	return out, dropped
}

// ValidateFlight checks a flight-record blob: schema, key, error, and a
// parsable shape. CI's dist drill runs it over persisted records.
func ValidateFlight(data []byte) error {
	var f FlightRecord
	if err := json.Unmarshal(data, &f); err != nil {
		return fmt.Errorf("telemetry: invalid flight JSON: %w", err)
	}
	if f.Schema != FlightSchema {
		return fmt.Errorf("telemetry: flight schema %q, want %q", f.Schema, FlightSchema)
	}
	if f.Key == "" {
		return fmt.Errorf("telemetry: flight record has no job key")
	}
	if f.Error == "" {
		return fmt.Errorf("telemetry: flight record has no error")
	}
	if f.TimeUS < 0 {
		return fmt.Errorf("telemetry: flight record has negative capture time %d", f.TimeUS)
	}
	return nil
}

// FlightStore persists flight records content-addressed: <id>.json files
// under a directory (conventionally "<result store>.flight"), or in
// memory when dir is empty (tests, MemStore-backed coordinators).
// Put is idempotent — identical content maps to the same ID and file.
type FlightStore struct {
	dir string

	mu  sync.Mutex
	mem map[string][]byte
}

// NewFlightStore opens (creating if needed) a directory-backed store, or
// an in-memory one when dir is empty.
func NewFlightStore(dir string) (*FlightStore, error) {
	if dir == "" {
		return &FlightStore{mem: map[string][]byte{}}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: creating flight store: %w", err)
	}
	return &FlightStore{dir: dir}, nil
}

// Put persists the record, filling its Schema, and returns its content
// address. Writes are atomic (temp file + rename) so a crash cannot leave
// a torn blob behind a valid ID.
func (s *FlightStore) Put(f *FlightRecord) (string, error) {
	f.Schema = FlightSchema
	buf, err := json.Marshal(f)
	if err != nil {
		return "", fmt.Errorf("telemetry: encoding flight record: %w", err)
	}
	id := f.ID()
	if s.dir == "" {
		s.mu.Lock()
		s.mem[id] = buf
		s.mu.Unlock()
		return id, nil
	}
	final := filepath.Join(s.dir, id+".json")
	if _, err := os.Stat(final); err == nil {
		return id, nil // content-addressed: already present means identical
	}
	tmp, err := os.CreateTemp(s.dir, "."+id+".tmp-*")
	if err != nil {
		return "", fmt.Errorf("telemetry: writing flight record: %w", err)
	}
	if _, err := tmp.Write(append(buf, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("telemetry: writing flight record: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("telemetry: writing flight record: %w", err)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("telemetry: writing flight record: %w", err)
	}
	return id, nil
}

// Get loads a record by ID.
func (s *FlightStore) Get(id string) (*FlightRecord, error) {
	var buf []byte
	if s.dir == "" {
		s.mu.Lock()
		buf = s.mem[id]
		s.mu.Unlock()
		if buf == nil {
			return nil, fmt.Errorf("telemetry: no flight record %q", id)
		}
	} else {
		var err error
		buf, err = os.ReadFile(filepath.Join(s.dir, id+".json"))
		if err != nil {
			return nil, fmt.Errorf("telemetry: reading flight record %q: %w", id, err)
		}
	}
	if err := ValidateFlight(buf); err != nil {
		return nil, err
	}
	var f FlightRecord
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("telemetry: decoding flight record %q: %w", id, err)
	}
	return &f, nil
}

// IDs lists the stored record IDs, sorted.
func (s *FlightStore) IDs() ([]string, error) {
	if s.dir == "" {
		s.mu.Lock()
		ids := make([]string, 0, len(s.mem))
		for id := range s.mem {
			ids = append(ids, id)
		}
		s.mu.Unlock()
		sort.Strings(ids)
		return ids, nil
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listing flight store: %w", err)
	}
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if filepath.Ext(name) == ".json" {
			ids = append(ids, name[:len(name)-len(".json")])
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// truncate bounds a string payload, marking the cut.
func truncate(s string, max int) string {
	if len(s) <= max {
		return s
	}
	return s[:max] + "\n[truncated]"
}
