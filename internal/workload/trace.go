package workload

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"autorfm/internal/cpu"
	"autorfm/internal/mapping"
)

// Trace file format: the simulator can persist any access stream and replay
// it later, so downstream users can drive the memory system with their own
// application traces instead of the synthetic generators.
//
// The format is a compact varint encoding, one record per entry:
//
//	header:  "ARFM" magic, format version (uvarint)
//	record:  gap (uvarint), flags (byte: bit0 write, bit1 dependsPrev),
//	         line-address delta from the previous record (signed varint)
//
// Delta-encoded line addresses keep sequential streams near 3 bytes/record
// (multi-stream interleavings cost a few more for the cross-stream jumps).

const (
	traceMagic   = "ARFM"
	traceVersion = 1
)

// traceLines is the simulated address space in cache lines (the simulator
// always runs the default geometry). A replayed line at or beyond it has
// no DRAM row, so the reader rejects it as it does a gap above
// math.MaxInt32.
var traceLines = mapping.Default().Lines()

// TraceWriter serialises cpu.Records to a stream.
type TraceWriter struct {
	w        *bufio.Writer
	prevLine uint64
	started  bool
	count    uint64
}

// NewTraceWriter writes a trace header to w and returns the writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return nil, fmt.Errorf("workload: writing trace magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], traceVersion)
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, fmt.Errorf("workload: writing trace version: %w", err)
	}
	return &TraceWriter{w: bw}, nil
}

// Write appends one record.
func (t *TraceWriter) Write(rec cpu.Record) error {
	var buf [2*binary.MaxVarintLen64 + 1]byte
	n := binary.PutUvarint(buf[:], uint64(rec.Gap))
	var flags byte
	if rec.Write {
		flags |= 1
	}
	if rec.DependsPrev {
		flags |= 2
	}
	buf[n] = flags
	n++
	delta := int64(rec.Line) - int64(t.prevLine)
	if !t.started {
		delta = int64(rec.Line)
		t.started = true
	}
	n += binary.PutVarint(buf[n:], delta)
	t.prevLine = rec.Line
	t.count++
	if _, err := t.w.Write(buf[:n]); err != nil {
		return fmt.Errorf("workload: writing trace record: %w", err)
	}
	return nil
}

// Count returns the number of records written.
func (t *TraceWriter) Count() uint64 { return t.count }

// Flush flushes buffered records to the underlying writer.
func (t *TraceWriter) Flush() error { return t.w.Flush() }

// TraceReader replays a serialised trace as a cpu.Stream.
type TraceReader struct {
	r        *bufio.Reader
	prevLine uint64
	n        int // records decoded so far: the index of the next one
	err      error
}

// NewTraceReader validates the header and returns a reader.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(traceMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("workload: reading trace magic: %w", err)
	}
	if string(magic) != traceMagic {
		return nil, errors.New("workload: not an AutoRFM trace (bad magic)")
	}
	v, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("workload: reading trace version: %w", err)
	}
	if v != traceVersion {
		return nil, fmt.Errorf("workload: unsupported trace version %d", v)
	}
	return &TraceReader{r: br}, nil
}

// Next implements cpu.Stream; it returns ok=false at end of trace or on a
// corrupt record (check Err). Every record it returns has a gap in
// [0, math.MaxInt32] and a line inside the simulated address space.
func (t *TraceReader) Next() (cpu.Record, bool) {
	if t.err != nil {
		return cpu.Record{}, false
	}
	gap, err := binary.ReadUvarint(t.r)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			t.fail("truncated: %w", err)
		}
		return cpu.Record{}, false
	}
	if gap > math.MaxInt32 {
		t.fail("gap %d exceeds %d", gap, math.MaxInt32)
		return cpu.Record{}, false
	}
	flags, err := t.r.ReadByte()
	if err != nil {
		t.fail("truncated: %w", err)
		return cpu.Record{}, false
	}
	delta, err := binary.ReadVarint(t.r)
	if err != nil {
		t.fail("truncated: %w", err)
		return cpu.Record{}, false
	}
	line := t.prevLine + uint64(delta) // prevLine is 0 before the first record
	if line >= traceLines {
		t.fail("line %#x outside the simulated address space of %#x lines", line, traceLines)
		return cpu.Record{}, false
	}
	t.prevLine = line
	t.n++
	return cpu.Record{
		Gap:         int(gap),
		Line:        line,
		Write:       flags&1 != 0,
		DependsPrev: flags&2 != 0,
	}, true
}

// fail records a decode error for the record being read.
func (t *TraceReader) fail(format string, a ...any) {
	t.err = fmt.Errorf("workload: trace record %d: %w", t.n, fmt.Errorf(format, a...))
}

// Err reports a decode error, if any, after Next returned false.
func (t *TraceReader) Err() error { return t.err }

var _ cpu.Stream = (*TraceReader)(nil)

// Capture runs a generator for n records and writes them as a trace —
// useful for freezing a synthetic workload into a shareable artifact.
func Capture(w io.Writer, stream cpu.Stream, n int) error {
	tw, err := NewTraceWriter(w)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		if err := tw.Write(rec); err != nil {
			return err
		}
	}
	return tw.Flush()
}
