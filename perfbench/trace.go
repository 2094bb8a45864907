package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"autorfm/internal/cpu"
	"autorfm/internal/mitigation"
	"autorfm/internal/plugin"
	"autorfm/internal/rng"
	"autorfm/internal/sim"
	"autorfm/internal/tracker"
)

// boundary aggregates the calls a job made across one layer boundary and
// the host time spent below it.
type boundary struct {
	Calls int64 `json:"calls"`
	NS    int64 `json:"ns"`
}

func (b *boundary) since(t0 time.Time) {
	b.Calls++
	b.NS += int64(time.Since(t0))
}

func (b *boundary) add(o boundary) {
	b.Calls += o.Calls
	b.NS += o.NS
}

// jobSpans is one traced job: its set-up and loop spans and the boundaries
// its layers crossed. A job is driven by one goroutine, so its boundaries
// need no locking; the tracer takes it over once the job ends.
type jobSpans struct {
	label               string
	queued, start, loop time.Time // queued is zero outside the sweep
	end                 time.Time
	act, sel, ref, vict boundary
	next                boundary
}

// tracer keeps a traced pass's spans in memory until they are written out.
type tracer struct {
	mu   sync.Mutex
	base time.Time
	jobs []*jobSpans
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// job starts a traced job; on a nil tracer it returns nil, which every
// caller treats as "untraced".
func (t *tracer) job(label string) *jobSpans {
	if t == nil {
		return nil
	}
	return &jobSpans{label: label}
}

// done records a finished job's spans: set-up from start to loop, then
// the loop until end.
func (t *tracer) done(js *jobSpans, start, loop, end time.Time) {
	if t == nil || js == nil {
		return
	}
	js.start, js.loop, js.end = start, loop, end
	t.mu.Lock()
	t.jobs = append(t.jobs, js)
	t.mu.Unlock()
}

// totals sums the boundaries of every recorded job.
func (t *tracer) totals() (act, sel, ref, vict, next boundary) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, j := range t.jobs {
		act.add(j.act)
		sel.add(j.sel)
		ref.add(j.ref)
		vict.add(j.vict)
		next.add(j.next)
	}
	return
}

// spanLine is one JSON-lines record: a job span carrying the job's boundary
// aggregates, or one of its child spans (queue, setup, loop).
type spanLine struct {
	Workload   string               `json:"workload"`
	Job        int                  `json:"job"`
	Label      string               `json:"label"`
	Span       string               `json:"span"`
	Parent     string               `json:"parent,omitempty"`
	StartNS    int64                `json:"start_ns"`
	EndNS      int64                `json:"end_ns"`
	Boundaries map[string]*boundary `json:"boundaries,omitempty"`
}

// write stores the spans as JSON lines, times relative to the tracer's
// creation.
func (t *tracer) write(path, wl string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	rel := func(x time.Time) int64 { return int64(x.Sub(t.base)) }
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, j := range t.jobs {
		jobStart := j.start
		if !j.queued.IsZero() {
			jobStart = j.queued
		}
		lines := []spanLine{{Workload: wl, Job: i, Label: j.label, Span: "job",
			StartNS: rel(jobStart), EndNS: rel(j.end),
			Boundaries: map[string]*boundary{"tracker.act": &j.act, "tracker.select": &j.sel,
				"tracker.ref": &j.ref, "mitigation.victims": &j.vict, "workload.next": &j.next}}}
		if !j.queued.IsZero() {
			lines = append(lines, spanLine{Span: "queue", StartNS: rel(j.queued), EndNS: rel(j.start)})
		}
		lines = append(lines,
			spanLine{Span: "setup", StartNS: rel(j.start), EndNS: rel(j.loop)},
			spanLine{Span: "loop", StartNS: rel(j.loop), EndNS: rel(j.end)})
		for k := range lines {
			if k > 0 {
				lines[k].Workload, lines[k].Job, lines[k].Label, lines[k].Parent = wl, i, j.label, "job"
			}
			if err := enc.Encode(&lines[k]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// install routes a simulation job's trackers and policies through timing
// wrappers. Trackers stay unwrapped under a recursive policy, because the
// device swaps a window-sized MINT for its recursive variant by asserting
// the tracker's concrete type.
func (js *jobSpans) install(cfg *sim.Config) error {
	n := cfg.Normalized()
	pbuild, err := mitigation.FromSpec(n.Policy)
	if err != nil {
		return err
	}
	probe, err := pbuild(rng.New(0))
	if err != nil {
		return err
	}
	cfg.NewPolicy = func(bank int, r *rng.Source) mitigation.Policy {
		p, err := pbuild(r)
		if err != nil {
			panic(err) // the probe build above accepted the spec
		}
		return &timedPolicy{inner: p, js: js}
	}
	if probe.Recursive() {
		return nil
	}
	tbuild, err := tracker.FromSpec(n.Tracker)
	if err != nil {
		return err
	}
	th := n.TH
	cfg.NewTracker = func(bank int, r *rng.Source) tracker.Tracker {
		t, err := tbuild(tracker.Env{Bank: bank, TH: th, R: r})
		if err != nil {
			panic(err) // sim validated the same spec before building banks
		}
		return &timedTracker{inner: t, js: js}
	}
	return nil
}

// timedTracker times a tracker's calls. It forwards tracker.REFAware, so
// the device's REF path reaches trackers that need it and no other.
type timedTracker struct {
	inner tracker.Tracker
	js    *jobSpans
}

func (t *timedTracker) Name() string { return t.inner.Name() }
func (t *timedTracker) Reset()       { t.inner.Reset() }

func (t *timedTracker) OnActivation(row uint32) {
	t0 := time.Now()
	t.inner.OnActivation(row)
	t.js.act.since(t0)
}

func (t *timedTracker) SelectForMitigation() tracker.Selection {
	t0 := time.Now()
	s := t.inner.SelectForMitigation()
	t.js.sel.since(t0)
	return s
}

func (t *timedTracker) OnREF() {
	if ra, ok := t.inner.(tracker.REFAware); ok {
		t0 := time.Now()
		ra.OnREF()
		t.js.ref.since(t0)
	}
}

// timedPolicy times a mitigation policy's victim selection. It forwards
// mitigation.VictimAppender with the same PRNG draws as Victims.
type timedPolicy struct {
	inner mitigation.Policy
	js    *jobSpans
}

func (p *timedPolicy) Name() string      { return p.inner.Name() }
func (p *timedPolicy) NumRefreshes() int { return p.inner.NumRefreshes() }
func (p *timedPolicy) Recursive() bool   { return p.inner.Recursive() }

func (p *timedPolicy) Victims(sel tracker.Selection, rows int) []uint32 {
	t0 := time.Now()
	v := p.inner.Victims(sel, rows)
	p.js.vict.since(t0)
	return v
}

func (p *timedPolicy) AppendVictims(dst []uint32, sel tracker.Selection, rows int) []uint32 {
	va, ok := p.inner.(mitigation.VictimAppender)
	if !ok {
		return append(dst, p.Victims(sel, rows)...)
	}
	t0 := time.Now()
	dst = va.AppendVictims(dst, sel, rows)
	p.js.vict.since(t0)
	return dst
}

// timedStream times a core's workload generator.
type timedStream struct {
	inner cpu.Stream
	js    *jobSpans
}

func (s *timedStream) Next() (cpu.Record, bool) {
	t0 := time.Now()
	r, ok := s.inner.Next()
	s.js.next.since(t0)
	return r, ok
}

var (
	_ tracker.REFAware          = (*timedTracker)(nil)
	_ mitigation.VictimAppender = (*timedPolicy)(nil)
)

// auditSpans is the traced audit job in flight. attack.Run builds its
// trackers and policy from registry names only, so the audit reaches the
// timing wrappers through the "bench.*" registrations below, which read the
// job from here. Audits run one at a time.
var auditSpans atomic.Pointer[jobSpans]

// currentAuditJob returns the audit job in flight, or a throwaway for the probe
// builds attack.Run makes before any job is set.
func currentAuditJob() *jobSpans {
	if js := auditSpans.Load(); js != nil {
		return js
	}
	return &jobSpans{}
}

func init() {
	for _, name := range auditTrackers {
		name := name
		tracker.Register(plugin.Info{Name: "bench." + name, Doc: name + " behind the benchmark's timing wrapper"},
			func(s *plugin.Spec, env tracker.Env) (tracker.Tracker, error) {
				if err := s.Finish(); err != nil {
					return nil, err
				}
				build, err := tracker.FromSpec(name)
				if err != nil {
					return nil, err
				}
				t, err := build(env)
				if err != nil {
					return nil, err
				}
				return &timedTracker{inner: t, js: currentAuditJob()}, nil
			})
	}
	mitigation.Register(plugin.Info{Name: "bench." + auditPolicy, Doc: auditPolicy + " behind the benchmark's timing wrapper"},
		func(s *plugin.Spec, r *rng.Source) (mitigation.Policy, error) {
			if err := s.Finish(); err != nil {
				return nil, err
			}
			p, err := mitigation.ByName(auditPolicy, r)
			if err != nil {
				return nil, err
			}
			return &timedPolicy{inner: p, js: currentAuditJob()}, nil
		})
}

// profileShares runs the offline pprof over a CPU profile and groups its
// flat samples by layer (see shareLayers), leaving out the calibration's.
// It also returns the inclusive shares of the event loop's Step and of the
// LLC pre-warm.
func profileShares(path string) (shares map[string]float64, stepIncl, prewarmIncl float64, err error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0", "-edgefraction=0",
		"-tagignore=bench="+calibLabel, path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	shares = make(map[string]float64, len(shareLayers))
	for _, l := range shareLayers {
		shares[l] = 0
	}
	for _, line := range strings.Split(string(out), "\n") {
		// flat flat% sum% cum cum% function
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		flat, err1 := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		cum, err2 := strconv.ParseFloat(strings.TrimSuffix(f[4], "%"), 64)
		if err1 != nil || err2 != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		shares[layerOf(fn)] += flat
		switch fn {
		case "autorfm/internal/event.(*Queue).Step":
			stepIncl = cum
		case "autorfm/internal/sim.prewarm":
			prewarmIncl = cum
		}
	}
	// pprof states shares against every sample, the ignored ones included;
	// restate them against the samples kept.
	kept := 0.0
	for _, v := range shares {
		kept += v
	}
	if kept == 0 {
		return nil, 0, 0, fmt.Errorf("go tool pprof: no samples in %s", path)
	}
	for l := range shares {
		shares[l] *= 100 / kept
	}
	return shares, stepIncl * 100 / kept, prewarmIncl * 100 / kept, nil
}

// layerOf maps a profiled function to the layer its package belongs to.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.IndexAny(pkg, "[ "); i >= 0 {
		pkg = pkg[:i] // drop generic shapes, which may hold slashes and dots
	}
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if pkg == "main" {
		return "bench"
	}
	if l, ok := strings.CutPrefix(pkg, "autorfm/internal/"); ok {
		for _, s := range shareLayers {
			if s == l {
				return l
			}
		}
		return "other"
	}
	if pkg == "runtime" || pkg == "sync" || strings.HasPrefix(pkg, "runtime/") ||
		strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "sync/") {
		return "go_runtime"
	}
	return "other"
}
