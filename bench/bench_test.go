package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkResult holds a run's metrics to the declaration: every declared
// metric once, nothing else, the declared unit, a finite value.
func checkResult(t *testing.T, what string, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", what, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !nameRE.MatchString(m.Name):
			t.Errorf("%s: bad metric name %q", what, m.Name)
		case !ok:
			t.Errorf("%s: declared metric %s not emitted", what, m.Name)
		case got.Unit != m.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", what, m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("%s: %s = %v", what, m.Name, got.Value)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, at tiny shapes, and
// holds what they emit to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	sps := specs(true)
	if len(decl.Workloads) != len(sps) {
		t.Fatalf("%d workloads declared, %d implemented", len(decl.Workloads), len(sps))
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	for i, sp := range sps {
		if decl.Workloads[i].Name != sp.name || !nameRE.MatchString(sp.name) {
			t.Fatalf("workload %d: declared %q, implemented %q", i, decl.Workloads[i].Name, sp.name)
		}
		res, err := measure(e, sp, 1, 200*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		checkResult(t, sp.name, res, decl.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.name, name, m.Value)
			}
		}

		res, err = traceRun(e, sp, 1, 400*time.Millisecond, map[string]string{"workload": sp.name})
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		checkResult(t, sp.name+" traced", res, decl.PerLayer)
		for name, m := range res.Metrics {
			wireOrDisk := strings.HasPrefix(name, "transport.") || strings.HasPrefix(name, "persist.")
			if wireOrDisk && name != "transport.retries" && (m.Value != 0) != sp.remote {
				t.Errorf("%s: %s = %v; the wire and the disk work on remote_durable only", sp.name, name, m.Value)
			}
		}
		var tf traceFile
		raw, err := os.ReadFile(filepath.Join(e.out, "trace_"+sp.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &tf); err != nil || len(tf.Spans) == 0 || len(tf.Epochs) == 0 {
			t.Errorf("%s: trace file: err=%v, %d spans, %d epochs", sp.name, err, len(tf.Spans), len(tf.Epochs))
		}
		for _, s := range tf.Spans {
			if s.End < s.Start || s.Name == "" {
				t.Errorf("%s: malformed span %+v", sp.name, s)
				break
			}
		}
	}

	// Nothing outlives the runs: no child, no work directory.
	e.cleanup()
	if _, err := os.Stat(e.work); !os.IsNotExist(err) {
		t.Errorf("work directory %s still there (err=%v)", e.work, err)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if b, err := os.ReadFile(p); err == nil && strings.HasPrefix(string(b), e.server+"\x00") {
			t.Errorf("a snoopy-server child is still running: %s", p)
		}
	}
}

// TestOracleCatchesWrongReply corrupts one reply on its way to the oracle,
// in each loop, and expects exactly that one operation to count as failed.
func TestOracleCatchesWrongReply(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	for _, name := range []string{"scan_heavy", "open_mixed"} {
		sp, _ := specByName(name, true)
		in := makeInputs(sp, 1)
		ln, err := openLane(e, sp, in, deployOpts{})
		if err != nil {
			t.Fatal(err)
		}
		target := ln.r.seq + 5
		ln.r.tamper = func(seq uint64, v []byte) {
			if seq == target && len(v) > 20 {
				v[20] ^= 1
			}
		}
		ln.l = ln.r.run(ln.d.st, 200*time.Millisecond)
		ln.d.close()
		if _, failed := ln.counts(); failed != 1 {
			t.Errorf("%s: %d operations failed, want exactly the corrupted one", name, failed)
		}
	}

	o := newOracle(4)
	v := make([]byte, blockSize)
	fillValue(v, 2, 0)
	if !o.check(2, v, true) {
		t.Error("the loaded value was rejected")
	}
	if o.check(2, v, false) || o.check(3, v, true) {
		t.Error("a not-found reply or another key's value was accepted")
	}
	o.stage(2, 7)
	o.stage(2, 9)
	if !o.check(2, v, true) {
		t.Error("a reply must carry the pre-epoch value, whatever the epoch writes")
	}
	o.endEpoch()
	fillValue(v, 2, 7)
	if o.check(2, v, true) {
		t.Error("the losing write's value was accepted after the epoch")
	}
	fillValue(v, 2, 9)
	if !o.check(2, v, true) {
		t.Error("the last write must win")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 29, 7, 22, 11, 16})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
