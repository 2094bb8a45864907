package telemetry

// The DRAM command trace: a bounded ring buffer of command records the
// memory controller and the device fill behind nil guards, exportable as
// Chrome trace-event JSON (one track per bank, a "channel" track for
// channel-wide commands) so bank-timing and RFM-blocking behaviour can be
// inspected visually in Perfetto or chrome://tracing.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"autorfm/internal/clk"
)

// CommandKind identifies one DRAM command class in the trace.
type CommandKind uint8

const (
	// KindACT is a successful demand activation (duration: tRAS, the row-open
	// window).
	KindACT CommandKind = iota
	// KindPRE is the closed-page auto-precharge implied by an ACT (duration:
	// tRP, recorded at the precharge point).
	KindPRE
	// KindRD and KindWR are column accesses (duration: tBURST at CAS time).
	KindRD
	KindWR
	// KindREF is the periodic channel-wide refresh (duration: tRFC).
	KindREF
	// KindRFM is an explicit RFM command (ModeRFM; duration: tRFM).
	KindRFM
	// KindALERT is an ACT declined by the device because it hit the subarray
	// under mitigation (instantaneous; the retry follows one RetryWait later).
	KindALERT
	// KindMIT is a device-side AutoRFM mitigation: the SAUM busy window
	// (duration: the policy's mitigation time; row is the mitigated
	// aggressor).
	KindMIT
	// KindABO is a PRAC alert back-off stall granted by the controller
	// (duration: tRFM).
	KindABO
)

var kindNames = [...]string{"ACT", "PRE", "RD", "WR", "REF", "RFM", "ALERT", "MIT", "ABO"}

// String names the command kind as it appears in the trace.
func (k CommandKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Cause attributes a command to what triggered it, so mitigation traffic is
// distinguishable from demand traffic on the same track.
type Cause uint8

const (
	// CauseDemand is ordinary demand traffic.
	CauseDemand Cause = iota
	// CauseREF is the periodic refresh stream.
	CauseREF
	// CauseRFM is explicit MC-side refresh management.
	CauseRFM
	// CauseAutoRFM is the device's transparent mitigation (SAUM/ALERT).
	CauseAutoRFM
	// CausePRAC is PRAC+ABO back-off mitigation.
	CausePRAC
)

var causeNames = [...]string{"demand", "ref", "rfm", "autorfm", "prac"}

// String names the cause as it appears in trace args.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// ChannelTrack is the Bank value of channel-wide commands (REF): they render
// on their own track instead of one per bank.
const ChannelTrack = -1

// Command is one traced DRAM command.
type Command struct {
	Tick  clk.Tick    // issue time
	Dur   clk.Tick    // occupancy (0 = instantaneous marker)
	Row   uint32      // row operand (0 when not applicable)
	Bank  int16       // bank, or ChannelTrack
	Kind  CommandKind // command class
	Cause Cause       // what triggered it
}

// CommandTrace is a bounded ring of Commands. Recording is allocation-free
// and O(1); once the ring is full the oldest record is overwritten (and
// counted), so a trace of a long run keeps the most recent window — the
// part that usually matters when a run is inspected after the fact.
//
// A CommandTrace belongs to one run (the simulator's event loop); it is not
// safe for concurrent use.
type CommandTrace struct {
	buf     []Command
	head    int // index of the oldest record
	n       int
	dropped uint64

	tm   clk.Timing
	hasT bool
}

// DefaultTraceCap is the ring capacity NewCommandTrace(0) selects: 64Ki
// commands ≈ the last few hundred microseconds of a busy channel.
const DefaultTraceCap = 1 << 16

// NewCommandTrace returns a trace ring holding up to capacity commands
// (capacity <= 0 selects DefaultTraceCap).
func NewCommandTrace(capacity int) *CommandTrace {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &CommandTrace{buf: make([]Command, capacity)}
}

// SetTiming records the device timing used to render durations; the
// simulator calls it when the trace is attached.
func (t *CommandTrace) SetTiming(tm clk.Timing) {
	t.tm = tm
	t.hasT = true
}

// Record appends one command, overwriting the oldest when full. Zero
// allocations (guarded by TestTraceRecordZeroAllocs).
func (t *CommandTrace) Record(tick, dur clk.Tick, kind CommandKind, cause Cause, bank int, row uint32) {
	c := Command{Tick: tick, Dur: dur, Row: row, Bank: int16(bank), Kind: kind, Cause: cause}
	if t.n == len(t.buf) {
		t.buf[t.head] = c
		t.head++
		if t.head == len(t.buf) {
			t.head = 0
		}
		t.dropped++
		return
	}
	i := t.head + t.n
	if i >= len(t.buf) {
		i -= len(t.buf)
	}
	t.buf[i] = c
	t.n++
}

// Len returns the number of retained commands.
func (t *CommandTrace) Len() int { return t.n }

// Dropped returns how many records were overwritten by ring wrap-around.
func (t *CommandTrace) Dropped() uint64 { return t.dropped }

// at returns the i-th retained command, oldest first.
func (t *CommandTrace) at(i int) *Command {
	j := t.head + i
	if j >= len(t.buf) {
		j -= len(t.buf)
	}
	return &t.buf[j]
}

// Commands returns the retained commands, oldest first.
func (t *CommandTrace) Commands() []Command {
	out := make([]Command, t.n)
	for i := range out {
		out[i] = *t.at(i)
	}
	return out
}

// traceEvent is one entry of the Chrome trace-event JSON format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// as the DRAM command trace writes it.
type traceEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat,omitempty"`
	Ph   string      `json:"ph"`
	TS   float64     `json:"ts"` // microseconds
	Dur  float64     `json:"dur,omitempty"`
	PID  int         `json:"pid"`
	TID  int         `json:"tid"`
	S    string      `json:"s,omitempty"` // instant-event scope
	Args interface{} `json:"args,omitempty"`
}

type cmdArgs struct {
	Row   uint32 `json:"row"`
	Cause string `json:"cause"`
}

type nameArgs struct {
	Name string `json:"name"`
}

// traceWriter streams trace events one per line between the document's
// header and footer, so a 64Ki-command trace never materialises as one
// giant in-memory slice of interface values. The first error is latched
// and returned by close.
type traceWriter struct {
	bw    *bufio.Writer
	first bool
	err   error
}

// newTraceWriter writes the document header, which sets the viewer's
// default time unit to nanoseconds.
func newTraceWriter(w io.Writer) *traceWriter {
	t := &traceWriter{bw: bufio.NewWriter(w), first: true}
	_, t.err = t.bw.WriteString("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	return t
}

func (t *traceWriter) emit(e *traceEvent) {
	if t.err != nil {
		return
	}
	if !t.first {
		if _, t.err = t.bw.WriteString(",\n"); t.err != nil {
			return
		}
	}
	t.first = false
	var buf []byte
	if buf, t.err = json.Marshal(e); t.err == nil {
		_, t.err = t.bw.Write(buf)
	}
}

// track names a tid ("thread") via thread_name metadata.
func (t *traceWriter) track(tid int, name string) {
	t.emit(&traceEvent{Name: "thread_name", Ph: "M", TID: tid, Args: nameArgs{Name: name}})
}

// slice emits a complete ("X") event, or an instant ("i") marker when dur
// is zero.
func (t *traceWriter) slice(name, cat string, ts, dur float64, tid int, args interface{}) {
	e := traceEvent{Name: name, Cat: cat, TS: ts, TID: tid, Args: args}
	if dur > 0 {
		e.Ph = "X"
		e.Dur = dur
	} else {
		e.Ph = "i"
		e.S = "t"
	}
	t.emit(&e)
}

// close writes the footer and flushes.
func (t *traceWriter) close() error {
	if t.err == nil {
		_, t.err = t.bw.WriteString("\n]}\n")
	}
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// ticksToUS converts simulation ticks (0.25ns) to Chrome's microseconds.
func ticksToUS(t clk.Tick) float64 { return float64(t) / (clk.TicksPerNS * 1000) }

// WriteChrome renders the retained commands as Chrome trace-event JSON:
// pid 0 with one tid ("thread") per bank, banks named via thread_name
// metadata, commands as complete ("X") slices using their recorded
// durations, zero-duration records as instant ("i") markers. The output
// loads directly in Perfetto or chrome://tracing.
func (t *CommandTrace) WriteChrome(w io.Writer) error {
	tw := newTraceWriter(w)
	// Name the tracks: tid = bank index + 1 (tid 0 is the channel track).
	seen := map[int16]bool{}
	for i := 0; i < t.n; i++ {
		c := t.at(i)
		if seen[c.Bank] {
			continue
		}
		seen[c.Bank] = true
		name := "channel"
		if c.Bank != ChannelTrack {
			name = fmt.Sprintf("bank %d", c.Bank)
		}
		tw.track(trackID(c.Bank), name)
	}
	for i := 0; i < t.n; i++ {
		c := t.at(i)
		cause := c.Cause.String()
		tw.slice(c.Kind.String(), cause, ticksToUS(c.Tick), ticksToUS(c.Dur), trackID(c.Bank),
			cmdArgs{Row: c.Row, Cause: cause})
	}
	return tw.close()
}

// trackID maps a bank to its Chrome tid: the channel track is 0, banks
// follow at bank+1.
func trackID(bank int16) int {
	if bank == ChannelTrack {
		return 0
	}
	return int(bank) + 1
}

// ValidateChromeTrace checks that data parses as Chrome trace-event JSON
// with at least one event, every event carrying a name, a known phase, and
// non-negative timestamps/durations. CI's observability smoke job runs it
// over the -trace output.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *int     `json:"pid"`
			TID  *int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("telemetry: invalid trace JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("telemetry: trace has no events")
	}
	for i, e := range doc.TraceEvents {
		if e.Name == "" {
			return fmt.Errorf("telemetry: trace event %d has no name", i)
		}
		switch e.Ph {
		case "X", "i", "I", "M":
		default:
			return fmt.Errorf("telemetry: trace event %d has unknown phase %q", i, e.Ph)
		}
		if e.PID == nil || e.TID == nil {
			return fmt.Errorf("telemetry: trace event %d missing pid/tid", i)
		}
		if e.Ph == "M" {
			continue // metadata events carry no timestamp
		}
		if e.TS == nil || *e.TS < 0 {
			return fmt.Errorf("telemetry: trace event %d has bad ts", i)
		}
		if e.Dur != nil && *e.Dur < 0 {
			return fmt.Errorf("telemetry: trace event %d has negative dur", i)
		}
	}
	return nil
}
