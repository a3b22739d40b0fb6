package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	r.SetClock(func() int64 { return 0 })
	r.SetSpanRing(4)
	r.SetTrace(NewTraceSink())
	if r.Now() != 0 {
		t.Fatal("nil Now")
	}
	c := r.Counter("x")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	g := r.Gauge("y")
	g.Set(7)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	h := r.Histogram("z", nil)
	h.Observe(time.Millisecond)
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram")
	}
	st := r.Stage("s")
	st.Record(1, 0, 0, 0, 1)
	sp := st.Start(1, 0, 0)
	sp.End()
	if got := r.Spans(10); got != nil {
		t.Fatalf("nil Spans = %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "disabled") {
		t.Fatalf("nil WriteMetrics = %q", buf.String())
	}
	snap := r.Snapshot(10)
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil snapshot not empty")
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	if r.Counter("reqs") != c {
		t.Fatal("counter registration not idempotent")
	}
	g := r.Gauge("epoch")
	g.Set(9)
	g.Add(-2)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d", g.Value())
	}
	h := r.Histogram("lat", nil)
	h.Observe(5 * time.Microsecond) // bucket le 10µs
	h.Observe(2 * time.Millisecond) // bucket le 10ms
	h.Observe(20 * time.Second)     // +inf bucket
	if h.Count() != 3 {
		t.Fatalf("hist count = %d", h.Count())
	}
	want := 5*time.Microsecond + 2*time.Millisecond + 20*time.Second
	if h.Sum() != want {
		t.Fatalf("hist sum = %v want %v", h.Sum(), want)
	}
	var buf bytes.Buffer
	if err := r.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		"counter reqs 5\n",
		"gauge epoch 7\n",
		"hist lat count 3",
		fmt.Sprintf("hist lat le %d 1\n", 10*time.Microsecond),
		"hist lat le +inf 3\n",
	} {
		if !strings.Contains(out, line) {
			t.Fatalf("export missing %q:\n%s", line, out)
		}
	}
}

func TestHistogramBucketSelection(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []time.Duration{time.Millisecond, time.Second})
	h.Observe(0)                    // le 1ms
	h.Observe(time.Millisecond)     // le 1ms (inclusive upper bound)
	h.Observe(time.Millisecond + 1) // le 1s
	h.Observe(2 * time.Second)      // +inf
	want := []uint64{2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d want %d", i, got, w)
		}
	}
}

func TestSpanRingAndCanonicalOrder(t *testing.T) {
	r := NewRegistry()
	var tick int64
	r.SetClock(func() int64 { tick++; return tick })
	a := r.Stage("stage_a")
	b := r.Stage("stage_b")
	// Record out of canonical order.
	b.Record(2, 1, 8, 10, 20)
	a.Record(2, 0, 8, 0, 5)
	b.Record(1, 0, 4, 1, 2)
	spans := r.Spans(10)
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	wantOrder := []struct {
		epoch uint64
		stage string
		part  int
	}{{1, "stage_b", 0}, {2, "stage_a", 0}, {2, "stage_b", 1}}
	for i, w := range wantOrder {
		s := spans[i]
		if s.Epoch != w.epoch || s.Stage != w.stage || s.Part != w.part {
			t.Fatalf("span %d = %+v want %+v", i, s, w)
		}
	}
	if spans[2].Dur != 10 {
		t.Fatalf("dur = %d", spans[2].Dur)
	}
	// Handle-based span uses the registry clock.
	sp := a.Start(3, 2, 16)
	sp.End()
	got := r.Spans(1)
	if len(got) != 1 || got[0].Epoch != 3 || got[0].Dur != 1 {
		t.Fatalf("handle span = %+v", got)
	}
}

// TestSpansOrderIsTotal: spans that collide on (Epoch, Stage, Part) still
// come out in one order whichever was recorded first.
func TestSpansOrderIsTotal(t *testing.T) {
	export := func(first, second int) []Span {
		r := NewRegistry()
		st := r.Stage("s")
		for i := 0; i < 8; i++ { // enough equal-key rows for an unstable sort to show
			st.Record(1, 0, first, 0, 0)
			st.Record(1, 0, second, 0, 0)
		}
		return r.Spans(100)
	}
	if a, b := export(9, 14), export(14, 9); !reflect.DeepEqual(a, b) {
		t.Fatalf("canonical order depends on recording order:\n%+v\n%+v", a, b)
	}
}

func TestSpanRingBounded(t *testing.T) {
	r := NewRegistry()
	r.SetSpanRing(4)
	st := r.Stage("s")
	for i := 0; i < 10; i++ {
		st.Record(uint64(i), 0, 0, 0, 1)
	}
	spans := r.Spans(100)
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans", len(spans))
	}
	for i, s := range spans {
		if want := uint64(6 + i); s.Epoch != want {
			t.Fatalf("span %d epoch = %d want %d", i, s.Epoch, want)
		}
	}
}

func TestTraceSinkMultisetEquality(t *testing.T) {
	r1 := NewRegistry()
	r2 := NewRegistry()
	for _, r := range []*Registry{r1, r2} {
		r.SetClock(func() int64 { return 0 })
	}
	s1, s2 := NewTraceSink(), NewTraceSink()
	r1.SetTrace(s1)
	r2.SetTrace(s2)
	// Same multiset of events, different order.
	c1, h1 := r1.Counter("c"), r1.Histogram("h", nil)
	c2, h2 := r2.Counter("c"), r2.Histogram("h", nil)
	c1.Add(1)
	c1.Add(2)
	h1.Observe(time.Millisecond)
	h2.Observe(time.Millisecond)
	c2.Add(2)
	c2.Add(1)
	if !EqualTraces(s1, s2) {
		t.Fatal("reordered identical events should be trace-equal")
	}
	// One extra event breaks equality.
	c1.Add(1)
	if EqualTraces(s1, s2) {
		t.Fatal("different multisets reported equal")
	}
	// Differing payload at the same site breaks equality.
	s3, s4 := NewTraceSink(), NewTraceSink()
	r3, r4 := NewRegistry(), NewRegistry()
	r3.SetTrace(s3)
	r4.SetTrace(s4)
	r3.Counter("c").Add(5)
	r4.Counter("c").Add(6)
	if EqualTraces(s3, s4) {
		t.Fatal("different payloads reported equal")
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	r.SetTrace(NewTraceSink())
	c := r.Counter("c")
	h := r.Histogram("h", nil)
	st := r.Stage("s")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				c.Inc()
				h.Observe(time.Duration(j) * time.Microsecond)
				st.Record(uint64(j), i, j, 0, 1)
			}
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for j := 0; j < 50; j++ {
				buf.Reset()
				_ = r.WriteMetrics(&buf)
				_ = r.Spans(64)
				_ = r.Snapshot(16)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 1600 {
		t.Fatalf("counter = %d", c.Value())
	}
	if h.Count() != 1600 {
		t.Fatalf("hist = %d", h.Count())
	}
}

func TestHTTPSurface(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Stage("stage_a").Record(1, 0, 8, 0, 100)
	addr, shutdown, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "counter reqs 3") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body = get("/trace/epochs?n=10")
	if code != 200 {
		t.Fatalf("/trace/epochs = %d", code)
	}
	var spans []Span
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("trace json: %v", err)
	}
	if len(spans) != 1 || spans[0].Stage != "stage_a" || spans[0].Dur != 100 {
		t.Fatalf("spans = %+v", spans)
	}
	code, _ = get("/debug/pprof/")
	if code != 200 {
		t.Fatalf("pprof = %d", code)
	}
}

func TestRecordingAllocs(t *testing.T) {
	r := NewRegistry()
	r.SetTrace(NewTraceSink())
	c := r.Counter("c")
	h := r.Histogram("h", nil)
	st := r.Stage("s")
	if a := testing.AllocsPerRun(100, func() { c.Add(2) }); a != 0 {
		t.Fatalf("Counter.Add allocs = %v", a)
	}
	if a := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) }); a != 0 {
		t.Fatalf("Histogram.Observe allocs = %v", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		sp := st.Start(1, 0, 8)
		sp.End()
	}); a != 0 {
		t.Fatalf("span start/stop allocs = %v", a)
	}
}

func TestWriteMetricsDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.SetClock(func() int64 { return 0 })
		// Register in scrambled order; export must sort.
		r.Gauge("zz").Set(1)
		r.Counter("b").Add(2)
		r.Histogram("m", nil).Observe(time.Millisecond)
		r.Counter("a").Add(7)
		return r
	}
	var b1, b2 bytes.Buffer
	_ = build().WriteMetrics(&b1)
	_ = build().WriteMetrics(&b2)
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("export not deterministic:\n%s\n--\n%s", b1.String(), b2.String())
	}
	if idx := strings.Index(b1.String(), "counter a 7"); idx < 0 || idx > strings.Index(b1.String(), "counter b 2") {
		t.Fatalf("counters not sorted:\n%s", b1.String())
	}
}
