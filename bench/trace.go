package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from outside the layer.
// Start and End are nanoseconds since the tracer was created; Parent is the
// ID of the span that caused it (0 = none); spans of one epoch share Epoch.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Epoch  int64  `json:"epoch"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run shares the traced run's code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span

	// The partition decorators parent their spans to the flush in progress;
	// the submitting goroutine publishes it here.
	flush atomic.Int32
	epoch atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int32, epoch int64) int32 {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Epoch: epoch, Start: now})
	t.mu.Unlock()
	return id
}

// discard forgets the spans so far (set-up's); none may be open.
func (t *tracer) discard() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children may overlap: partitions run in
// parallel), indexed like t.spans.
func (t *tracer) selfTimes() []int64 {
	kids := make(map[int32][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] = s.End - s.Start
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(k.Start, covered), min(k.End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// coveredByEpoch is, for each epoch in order, the time in ms that the spans
// with one of the given names cover together.
func (t *tracer) coveredByEpoch(names ...string) []float64 {
	byEpoch := map[int64][]span{}
	var order []int64
	for _, s := range t.spans {
		if !slices.Contains(names, s.Name) {
			continue
		}
		if _, seen := byEpoch[s.Epoch]; !seen {
			order = append(order, s.Epoch)
		}
		byEpoch[s.Epoch] = append(byEpoch[s.Epoch], s)
	}
	slices.Sort(order)
	var out []float64
	for _, e := range order {
		ss := byEpoch[e]
		sort.Slice(ss, func(a, b int) bool { return ss[a].Start < ss[b].Start })
		covered, until := int64(0), int64(0)
		for _, s := range ss {
			if lo := max(s.Start, until); s.End > lo {
				covered += s.End - lo
				until = s.End
			}
		}
		out = append(out, float64(covered)/1e6)
	}
	return out
}

// epochRow is what the engine itself reported for one epoch (Stats()).
type epochRow struct {
	Epoch       uint64  `json:"epoch"`
	Requests    int     `json:"requests"`
	Alpha       int     `json:"alpha"`
	Dropped     int     `json:"dropped"`
	WallMs      float64 `json:"wall_ms"`
	MakeBatchMs float64 `json:"make_batches_ms"`
	SubORAMMs   float64 `json:"suboram_ms"`
	MatchMs     float64 `json:"match_responses_ms"`
	Straggler   float64 `json:"straggler_ratio"`
}

type traceFile struct {
	Meta     map[string]string  `json:"meta"`
	Workload string             `json:"workload"`
	SelfMs   map[string]float64 `json:"self_ms_total_by_name"`
	Epochs   []epochRow         `json:"epochs"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path string, meta map[string]string, workload string, epochs []epochRow) error {
	tf := traceFile{Meta: meta, Workload: workload, SelfMs: map[string]float64{}, Epochs: epochs, Spans: t.spans}
	for i, ns := range t.selfTimes() {
		tf.SelfMs[t.spans[i].Name] += float64(ns) / 1e6
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
