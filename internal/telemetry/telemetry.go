// Package telemetry is Snoopy's oblivious-safe observability layer: a
// process-wide registry of counters, gauges, and fixed-bucket histograms,
// plus per-epoch stage spans recorded into a bounded ring and exported as a
// structured epoch trace.
//
// Telemetry added to an oblivious system is itself attack surface: a
// counter bumped only on a hash-table hit, or a histogram keyed on request
// contents, silently reinstates the access-pattern side channel the
// oblivious building blocks were chosen to close. This package is designed
// so that cannot happen, and internal/trace's leakage tests enforce it:
//
//   - Every instrument name, label, and bucket boundary is fixed at
//     registration time from public deployment configuration. There is no
//     API for dynamic (request-derived) labels.
//   - Every recording site fires a constant number of times per epoch /
//     batch / RPC, at positions that are a function of public parameters
//     (epoch number, partition index, batch size α, request count R) only.
//     Nothing records conditionally on secret data.
//   - Recording reads time exclusively through the registry's own clock
//     (Now), so tests can substitute a deterministic clock and assert that
//     two workloads differing only in secret keys/values produce
//     byte-identical exports — the executable form of "observability
//     reveals nothing beyond public information".
//   - Histogram bucket selection scans the full (public) bound list every
//     observation — constant shape. The selected bucket depends only on the
//     observed duration, which the adversary measures directly anyway; it
//     is the very quantity the histogram exists to record.
//   - Recording on the data-plane hot path is allocation-free once the
//     registry is built (AllocsPerRun == 0 guards in suboram/
//     loadbalancer/core), matching the PR 2 zero-alloc contract.
//
// A nil *Registry (and every instrument obtained from one) is valid and
// records nothing, so components thread telemetry unconditionally and
// deployments that do not enable it pay only a nil check.
package telemetry

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snoopy/internal/metrics"
)

// DefBuckets are the default histogram bucket upper bounds: one decade per
// bucket from 1µs to 10s, a public constant that covers every latency in
// the system from a hash-table probe to a cross-restart failover.
var DefBuckets = []time.Duration{
	time.Microsecond,
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
	10 * time.Second,
}

// DefaultSpanRing is the default capacity of the epoch-span ring.
const DefaultSpanRing = 1024

// Registry holds a deployment's instruments and its span ring. Create one
// per process (or per system under test) with NewRegistry; obtain
// instruments by name (registration is idempotent — the same name returns
// the same instrument, so components sharing a registry share counters).
type Registry struct {
	clock func() int64 // monotonic nanoseconds; SetClock replaces (tests)

	mu       sync.Mutex
	byName   map[string]any
	counters []*Counter
	gauges   []*Gauge
	hists    []*Histogram
	stages   []*SpanStage
	nextSite uint32

	ringMu    sync.Mutex
	ring      []Span
	ringPos   int
	ringTotal uint64

	sink atomic.Pointer[TraceSink]
}

// NewRegistry creates an empty registry with the real monotonic clock and
// the default span ring capacity.
func NewRegistry() *Registry {
	start := time.Now()
	return &Registry{
		clock:  func() int64 { return int64(time.Since(start)) },
		byName: make(map[string]any),
		ring:   make([]Span, DefaultSpanRing),
	}
}

// SetClock replaces the registry clock (deterministic tests). Call before
// any recording; the clock must be safe for the caller's concurrency.
func (r *Registry) SetClock(fn func() int64) {
	if r == nil {
		return
	}
	r.clock = fn
}

// SetSpanRing resizes the span ring (public configuration). Call before
// any recording; existing spans are discarded.
func (r *Registry) SetSpanRing(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.ringMu.Lock()
	r.ring = make([]Span, n)
	r.ringPos = 0
	r.ringTotal = 0
	r.ringMu.Unlock()
}

// SetTrace installs (or, with nil, removes) a TraceSink observing every
// recording event. Test facility for the leakage suite.
func (r *Registry) SetTrace(ts *TraceSink) {
	if r == nil {
		return
	}
	r.sink.Store(ts)
}

// Now returns the registry clock reading in nanoseconds. All telemetry
// timing must come from here — never from time.Now directly — so the
// leakage tests can substitute a deterministic clock.
func (r *Registry) Now() int64 {
	if r == nil {
		return 0
	}
	return r.clock()
}

// trace forwards one recording event to the sink, if any.
func (r *Registry) trace(site uint32, a, b uint64) {
	if r == nil {
		return
	}
	if ts := r.sink.Load(); ts != nil {
		ts.record(site, a, b)
	}
}

// site allocates the next site identifier. Caller holds mu. Site numbering
// follows registration order, which is itself a function of public
// configuration (component construction order), so the trace site space is
// public.
func (r *Registry) site() uint32 {
	s := r.nextSite
	r.nextSite++
	return s
}

// ---- Counter ----

// Counter is a named, monotonically increasing event counter. A nil
// *Counter records nothing.
type Counter struct {
	reg  *Registry
	name string
	site uint32
	c    metrics.Counter
}

// Counter returns the counter registered under name, creating it on first
// use. Names are public configuration; never derive one from request
// contents.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		c, ok := got.(*Counter)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q registered as %T, requested as counter", name, got))
		}
		return c
	}
	c := &Counter{reg: r, name: name, site: r.site()}
	r.byName[name] = c
	r.counters = append(r.counters, c)
	return c
}

// Add increments the counter by n. n must be a function of public
// parameters (a batch size, a retry count) — never of secret contents.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.c.Add(n)
	c.reg.trace(c.site, n, 0)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.c.Load()
}

// ---- Gauge ----

// Gauge is a named instantaneous value. A nil *Gauge records nothing.
type Gauge struct {
	reg  *Registry
	name string
	site uint32
	v    atomic.Int64
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		g, ok := got.(*Gauge)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q registered as %T, requested as gauge", name, got))
		}
		return g
	}
	g := &Gauge{reg: r, name: name, site: r.site()}
	r.byName[name] = g
	r.gauges = append(r.gauges, g)
	return g
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.reg.trace(g.site, uint64(v), 0)
}

// SetMax sets the gauge to v unless the stored value is already larger —
// the race-free monotone update for values like "latest completed epoch"
// that concurrent (pipelined) completions may report out of order. The
// trace event fires unconditionally with the attempted value, so the
// event stream is a function of what was recorded, never of the goroutine
// schedule that interleaved the recordings.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if cur >= v || g.v.CompareAndSwap(cur, v) {
			break
		}
	}
	g.reg.trace(g.site, uint64(v), 0)
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
	g.reg.trace(g.site, uint64(delta), 1)
}

// Value returns the current gauge reading.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// ---- Histogram ----

// Histogram accumulates duration observations into fixed buckets. Bucket
// bounds are set at registration (public configuration) and never change.
// A nil *Histogram records nothing.
type Histogram struct {
	reg    *Registry
	name   string
	site   uint32
	bounds []int64 // upper bounds in ns, ascending; +inf bucket implied
	counts []atomic.Uint64
	sum    atomic.Int64
	n      atomic.Uint64
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (nil means DefBuckets). Bounds are fixed at
// first registration; later calls with the same name return the existing
// instrument regardless of bounds.
func (r *Registry) Histogram(name string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if got, ok := r.byName[name]; ok {
		h, ok := got.(*Histogram)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q registered as %T, requested as histogram", name, got))
		}
		return h
	}
	if bounds == nil {
		bounds = DefBuckets
	}
	h := &Histogram{reg: r, name: name, site: r.site()}
	h.bounds = make([]int64, len(bounds))
	for i, b := range bounds {
		h.bounds[i] = int64(b)
	}
	sort.Slice(h.bounds, func(i, j int) bool { return h.bounds[i] < h.bounds[j] })
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	r.byName[name] = h
	r.hists = append(r.hists, h)
	return h
}

// Observe records one duration. The bucket scan always walks the full
// (public, fixed-length) bound list — constant shape; the selected bucket
// depends only on the observed duration, which is adversary-visible timing,
// never on secret contents.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	idx := 0
	for _, b := range h.bounds {
		if ns > b {
			idx++
		}
	}
	h.counts[idx].Add(1)
	h.sum.Add(ns)
	h.n.Add(1)
	h.reg.trace(h.site, uint64(idx), 0)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average observation (0 with no observations).
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// ---- Spans ----

// Span is one recorded pipeline-stage execution. Every field is a function
// of public parameters: the stage name is registration-time constant, Epoch
// and Part index the public schedule, B is the public batch/request size,
// and Start/Dur are registry-clock timing (adversary-visible anyway).
type Span struct {
	Stage string `json:"stage"`
	Epoch uint64 `json:"epoch"`
	Part  int    `json:"part"`
	B     int    `json:"b"`
	Start int64  `json:"start_ns"`
	Dur   int64  `json:"dur_ns"`
}

// SpanStage is a named recording site for spans. Each recorded span also
// feeds the stage's duration histogram ("<name>_dur").
type SpanStage struct {
	reg  *Registry
	name string
	site uint32
	hist *Histogram
}

// Stage returns the span stage registered under name, creating it (and its
// duration histogram) on first use.
func (r *Registry) Stage(name string) *SpanStage {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	if got, ok := r.byName[name]; ok {
		r.mu.Unlock()
		st, ok := got.(*SpanStage)
		if !ok {
			panic(fmt.Sprintf("telemetry: %q registered as %T, requested as stage", name, got))
		}
		return st
	}
	st := &SpanStage{reg: r, name: name, site: r.site()}
	r.byName[name] = st
	r.stages = append(r.stages, st)
	r.mu.Unlock()
	st.hist = r.Histogram(name+"_dur", nil)
	return st
}

// Record appends one completed span for this stage: epoch and part index
// the public schedule, b is the public size tag, start/end are registry
// clock readings (use Registry.Now). Allocation-free.
func (st *SpanStage) Record(epoch uint64, part, b int, start, end int64) {
	if st == nil {
		return
	}
	r := st.reg
	r.ringMu.Lock()
	r.ring[r.ringPos] = Span{Stage: st.name, Epoch: epoch, Part: part, B: b, Start: start, Dur: end - start}
	r.ringPos++
	if r.ringPos == len(r.ring) {
		r.ringPos = 0
	}
	r.ringTotal++
	r.ringMu.Unlock()
	st.hist.Observe(time.Duration(end - start))
	r.trace(st.site, epoch, uint64(part))
}

// SpanHandle is an in-flight span started with Start; End completes it.
// Value type: start/stop performs no heap allocation.
type SpanHandle struct {
	st    *SpanStage
	epoch uint64
	part  int
	b     int
	start int64
}

// Start opens a span; call End on the returned handle when the stage
// completes. For stages whose size tag is known only afterwards, use
// Record directly.
func (st *SpanStage) Start(epoch uint64, part, b int) SpanHandle {
	if st == nil {
		return SpanHandle{}
	}
	return SpanHandle{st: st, epoch: epoch, part: part, b: b, start: st.reg.Now()}
}

// End completes the span.
func (h SpanHandle) End() {
	if h.st == nil {
		return
	}
	h.st.Record(h.epoch, h.part, h.b, h.start, h.st.reg.Now())
}

// Spans returns up to n of the most recent spans in canonical order: a
// total order over every field, (Epoch, Stage, Part) first. Two spans that
// compare equal are the same value, so the exported trace is a
// deterministic function of the recorded span set regardless of goroutine
// interleaving — even if two recording sites ever share (Epoch, Stage, Part).
func (r *Registry) Spans(n int) []Span {
	if r == nil || n <= 0 {
		return nil
	}
	r.ringMu.Lock()
	total := int(r.ringTotal)
	if total > len(r.ring) {
		total = len(r.ring)
	}
	if n > total {
		n = total
	}
	out := make([]Span, 0, n)
	// Walk backwards from the most recent slot.
	for i := 0; i < n; i++ {
		pos := r.ringPos - 1 - i
		for pos < 0 {
			pos += len(r.ring)
		}
		out = append(out, r.ring[pos])
	}
	r.ringMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].before(out[j]) })
	return out
}

// before is the canonical span order.
func (a Span) before(b Span) bool {
	switch {
	case a.Epoch != b.Epoch:
		return a.Epoch < b.Epoch
	case a.Stage != b.Stage:
		return a.Stage < b.Stage
	case a.Part != b.Part:
		return a.Part < b.Part
	case a.B != b.B:
		return a.B < b.B
	case a.Start != b.Start:
		return a.Start < b.Start
	}
	return a.Dur < b.Dur
}

// ---- Export ----

// WriteMetrics writes the plain-text export: one line per counter and
// gauge, count/sum plus cumulative bucket lines per histogram, all sorted
// by name. The output is a deterministic function of the recorded values —
// the leakage tests compare it byte for byte.
func (r *Registry) WriteMetrics(w io.Writer) error {
	if r == nil {
		_, err := fmt.Fprintln(w, "# telemetry disabled")
		return err
	}
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	sort.Slice(counters, func(i, j int) bool { return counters[i].name < counters[j].name })
	sort.Slice(gauges, func(i, j int) bool { return gauges[i].name < gauges[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "counter %s %d\n", c.name, c.Value()); err != nil {
			return err
		}
	}
	for _, g := range gauges {
		if _, err := fmt.Fprintf(w, "gauge %s %d\n", g.name, g.Value()); err != nil {
			return err
		}
	}
	for _, h := range hists {
		if _, err := fmt.Fprintf(w, "hist %s count %d sum_ns %d\n", h.name, h.Count(), h.sum.Load()); err != nil {
			return err
		}
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.counts[i].Load()
			if _, err := fmt.Fprintf(w, "hist %s le %d %d\n", h.name, b, cum); err != nil {
				return err
			}
		}
		cum += h.counts[len(h.bounds)].Load()
		if _, err := fmt.Fprintf(w, "hist %s le +inf %d\n", h.name, cum); err != nil {
			return err
		}
	}
	return nil
}

// HistogramSnapshot is one histogram's state in a Snapshot.
type HistogramSnapshot struct {
	Name     string   `json:"name"`
	Count    uint64   `json:"count"`
	SumNS    int64    `json:"sum_ns"`
	BoundsNS []int64  `json:"bounds_ns"`
	Counts   []uint64 `json:"counts"`
}

// Snapshot is a point-in-time, JSON-marshalable view of the registry
// (snoopy.TelemetrySnapshot).
type Snapshot struct {
	Counters   map[string]uint64   `json:"counters"`
	Gauges     map[string]int64    `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
	Spans      []Span              `json:"spans"`
}

// Snapshot captures the registry: all counters and gauges, every histogram
// with per-bucket counts, and the last nSpans spans in canonical order.
func (r *Registry) Snapshot(nSpans int) Snapshot {
	snap := Snapshot{
		Counters: map[string]uint64{},
		Gauges:   map[string]int64{},
	}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]*Histogram(nil), r.hists...)
	r.mu.Unlock()
	for _, c := range counters {
		snap.Counters[c.name] = c.Value()
	}
	for _, g := range gauges {
		snap.Gauges[g.name] = g.Value()
	}
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	for _, h := range hists {
		hs := HistogramSnapshot{
			Name:     h.name,
			Count:    h.Count(),
			SumNS:    h.sum.Load(),
			BoundsNS: append([]int64(nil), h.bounds...),
		}
		for i := range h.counts {
			hs.Counts = append(hs.Counts, h.counts[i].Load())
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	snap.Spans = r.Spans(nSpans)
	return snap
}

// ---- Trace sink (leakage-test facility) ----

// TraceSink observes every recording event of a registry as a per-site
// multiset digest: each event is hashed with its site identifier and summed
// (order-insensitively) into that site's accumulator. Two sinks are Equal
// when every site saw the same multiset of events. Order within a site is
// deliberately not part of the digest — concurrent recorders (per-partition
// stage-B goroutines) interleave nondeterministically — but the site space
// itself, registration-ordered, is public and fixed, so equality still
// means: which instruments recorded, how often, and with what (public)
// event payloads is identical.
type TraceSink struct {
	mu    sync.Mutex
	sites map[uint32]*siteDigest
	n     uint64
}

type siteDigest struct {
	sum [4]uint64 // wrapping vector sum of sha256(event) — multiset digest
	n   uint64
}

// NewTraceSink creates an empty sink.
func NewTraceSink() *TraceSink {
	return &TraceSink{sites: make(map[uint32]*siteDigest)}
}

func (t *TraceSink) record(site uint32, a, b uint64) {
	var buf [20]byte
	binary.LittleEndian.PutUint32(buf[0:4], site)
	binary.LittleEndian.PutUint64(buf[4:12], a)
	binary.LittleEndian.PutUint64(buf[12:20], b)
	h := sha256.Sum256(buf[:])
	t.mu.Lock()
	d := t.sites[site]
	if d == nil {
		d = &siteDigest{}
		t.sites[site] = d
	}
	for i := 0; i < 4; i++ {
		d.sum[i] += binary.LittleEndian.Uint64(h[i*8:])
	}
	d.n++
	t.n++
	t.mu.Unlock()
}

// Count returns the total number of observed events.
func (t *TraceSink) Count() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Sum returns the sink digest: a hash over every site's event count and
// multiset digest, in site order.
func (t *TraceSink) Sum() [sha256.Size]byte {
	if t == nil {
		return [sha256.Size]byte{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sites := make([]uint32, 0, len(t.sites))
	for s := range t.sites {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })
	h := sha256.New()
	var buf [8]byte
	for _, s := range sites {
		d := t.sites[s]
		binary.LittleEndian.PutUint32(buf[:4], s)
		h.Write(buf[:4])
		binary.LittleEndian.PutUint64(buf[:], d.n)
		h.Write(buf[:])
		for i := 0; i < 4; i++ {
			binary.LittleEndian.PutUint64(buf[:], d.sum[i])
			h.Write(buf[:])
		}
	}
	var out [sha256.Size]byte
	copy(out[:], h.Sum(nil))
	return out
}

// EqualTraces reports whether two sinks observed identical per-site event
// multisets.
func EqualTraces(a, b *TraceSink) bool {
	return a.Count() == b.Count() && a.Sum() == b.Sum()
}
