package workload

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"autorfm/internal/cpu"
	"autorfm/internal/mapping"
)

// simLines is the simulated address space in lines, the bound every
// decoded record's line must stay under.
var simLines = mapping.Default().Lines()

func TestTraceRoundTrip(t *testing.T) {
	recs := []cpu.Record{
		{Gap: 0, Line: 100, Write: false},
		{Gap: 37, Line: 101, Write: true},
		{Gap: 1000, Line: 5, DependsPrev: true},
		{Gap: 0, Line: 1 << 28, Write: true, DependsPrev: true},
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if tw.Count() != uint64(len(recs)) {
		t.Fatalf("Count = %d", tw.Count())
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range recs {
		got, ok := tr.Next()
		if !ok {
			t.Fatalf("record %d missing (err %v)", i, tr.Err())
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := tr.Next(); ok {
		t.Fatal("trace longer than written")
	}
	if tr.Err() != nil {
		t.Fatalf("clean EOF reported error: %v", tr.Err())
	}
}

// Property: any record sequence round-trips exactly.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(gaps []uint16, lines []uint32, flags []bool) bool {
		n := len(gaps)
		if len(lines) < n {
			n = len(lines)
		}
		if n == 0 {
			return true
		}
		var recs []cpu.Record
		for i := 0; i < n; i++ {
			rec := cpu.Record{Gap: int(gaps[i]), Line: uint64(lines[i]) % simLines}
			if i < len(flags) {
				rec.Write = flags[i]
				rec.DependsPrev = !flags[i] && i%3 == 0
			}
			if rec.Write {
				rec.DependsPrev = false // loads only
			}
			recs = append(recs, rec)
		}
		var buf bytes.Buffer
		tw, _ := NewTraceWriter(&buf)
		for _, r := range recs {
			if tw.Write(r) != nil {
				return false
			}
		}
		tw.Flush()
		tr, err := NewTraceReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range recs {
			got, ok := tr.Next()
			if !ok || got != want {
				return false
			}
		}
		_, ok := tr.Next()
		return !ok && tr.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTraceCompactness(t *testing.T) {
	// A sequential trace must encode in a handful of bytes per record.
	g := NewGenerator(mustProfile(t, "copy"), 0, 1)
	var buf bytes.Buffer
	const n = 10_000
	if err := Capture(&buf, g, n); err != nil {
		t.Fatal(err)
	}
	// copy alternates between two distant streams, so every other delta is
	// large; even so the varint encoding stays well under a fixed 17-byte
	// record.
	perRec := float64(buf.Len()) / n
	if perRec > 8 {
		t.Fatalf("trace uses %.1f bytes/record, want compact encoding", perRec)
	}
	// And it must replay identically to a fresh generator.
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2 := NewGenerator(mustProfile(t, "copy"), 0, 1)
	for i := 0; i < n; i++ {
		want, _ := g2.Next()
		got, ok := tr.Next()
		if !ok || got != want {
			t.Fatalf("record %d: got %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
}

func TestTraceReaderRejectsGarbage(t *testing.T) {
	if _, err := NewTraceReader(bytes.NewReader([]byte("NOPE1234"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewTraceReader(bytes.NewReader([]byte("AR"))); err == nil {
		t.Fatal("truncated magic accepted")
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf)
	tw.Write(cpu.Record{Gap: 5, Line: 10})
	tw.Flush()
	data := buf.Bytes()[:buf.Len()-1]
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := tr.Next(); !ok {
			break
		}
	}
	if tr.Err() == nil {
		t.Fatal("truncated record not reported")
	}
}

// rawRecord is one trace record as encoded, so tests can write values
// TraceWriter never would.
type rawRecord struct {
	gap   uint64
	flags byte
	delta int64
}

func rawTrace(recs ...rawRecord) []byte {
	b := binary.AppendUvarint([]byte(traceMagic), traceVersion)
	for _, r := range recs {
		b = binary.AppendUvarint(b, r.gap)
		b = append(b, r.flags)
		b = binary.AppendVarint(b, r.delta)
	}
	return b
}

// TestTraceReaderBounds pins the decode limits: a gap above math.MaxInt32
// or a line outside the simulated address space is an error naming the
// record, and the reader stops there instead of handing the simulator a
// negative gap or an unmappable line.
func TestTraceReaderBounds(t *testing.T) {
	valid := rawTrace(rawRecord{1, 0, 1000}, rawRecord{2, 1, 8}, rawRecord{3, 2, 1 << 20})
	cases := []struct {
		name    string
		data    []byte
		records int    // records returned before the reader stops
		err     string // substring of Err(); "" for a clean end
	}{
		{"valid", valid, 3, ""},
		{"largest gap", rawTrace(rawRecord{math.MaxInt32, 0, 5}), 1, ""},
		{"last line", rawTrace(rawRecord{0, 0, int64(simLines - 1)}), 1, ""},
		{"gap above MaxInt32", rawTrace(rawRecord{0, 0, 5}, rawRecord{1<<63 + 5, 0, 1000}), 1, "trace record 1: gap 9223372036854775813"},
		{"line delta 2^62", rawTrace(rawRecord{0, 0, 1000}, rawRecord{0, 0, 1 << 62}), 1, "trace record 1: line 0x40000000000003e8 outside"},
		{"first line at the bound", rawTrace(rawRecord{0, 0, int64(simLines)}), 0, "trace record 0: line"},
		{"line below zero", rawTrace(rawRecord{0, 0, 5}, rawRecord{0, 0, -6}), 1, "trace record 1: line 0xffffffffffffffff outside"},
		{"torn last record", valid[:len(valid)-1], 2, "trace record 2: truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTraceReader(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				if _, ok := tr.Next(); !ok {
					break
				}
				n++
			}
			if n != tc.records {
				t.Errorf("decoded %d records, want %d", n, tc.records)
			}
			switch err := tr.Err(); {
			case tc.err == "" && err != nil:
				t.Errorf("Err() = %v, want none", err)
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Errorf("Err() = %v, want it to contain %q", err, tc.err)
			}
		})
	}
}

// FuzzTraceReader: arbitrary bytes never panic the reader, and every record
// it returns is one the simulator can run: a gap in [0, math.MaxInt32] and a
// line inside the simulated address space.
func FuzzTraceReader(f *testing.F) {
	var captured bytes.Buffer
	if err := Capture(&captured, NewGenerator(mustProfile(f, "lbm"), 0, 1), 64); err != nil {
		f.Fatal(err)
	}
	f.Add(captured.Bytes())
	f.Add(captured.Bytes()[:captured.Len()-1])
	f.Add(rawTrace(rawRecord{0, 0, 5}, rawRecord{1<<63 + 5, 0, 1000}))
	f.Add(rawTrace(rawRecord{0, 0, 1000}, rawRecord{0, 0, 1 << 62}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTraceReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; ; i++ {
			rec, ok := tr.Next()
			if !ok {
				break
			}
			if rec.Gap < 0 || rec.Gap > math.MaxInt32 || rec.Line >= simLines {
				t.Fatalf("record %d out of bounds: %+v", i, rec)
			}
		}
	})
}

func mustProfile(t testing.TB, name string) Profile {
	t.Helper()
	p, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
