package persist

// Crash-point enumeration: every sealed file of every durable structure,
// every mutating file operation, in turn — not a sample.
//
// For each structure (Durable, SegDurable, Journal) a fixed scenario runs
// once on a crashFS to count its operations. It is then re-run once per
// operation index with that operation failing — clean, and again torn where
// a write can tear — and the dead file system is reopened twice: as the host
// that kept everything the process wrote (the process died) and as the host
// that kept only what was synced (a power loss). Every reopen must land on
// the last acknowledged epoch (or one past it, when the crash fell between
// the counter's write and the return), holding exactly that epoch's state —
// never an error, never a panic, never a shorter history.
//
// A second enumeration is the rollback: the durable image at every sync
// point of a clean run is presented, with the final trusted counter, as
// "what the host kept". Each must either be refused in the ErrIntegrity
// class or be the final state.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/store"
)

// crashCase is one structure's scenario and its checks.
type crashCase struct {
	// run drives the scenario on fs until it finishes or an operation
	// fails, returning how many steps were acknowledged (step 0 is Init).
	run func(t *testing.T, fs *crashFS, dir string) (acked int)
	// check reopens what the host kept. acked is what run returned; final
	// reports that the image is a rollback candidate, to be judged against
	// the scenario's end rather than against a crash.
	check func(t *testing.T, fs *crashFS, dir string, acked int, final bool) error
}

func enumerateCrashes(t *testing.T, c crashCase) {
	clean := newCrashFS()
	total := c.run(t, clean, t.TempDir())
	n := clean.ops
	if n < 10 {
		t.Fatalf("scenario performed only %d operations", n)
	}
	runs := 0
	for k := 0; k < n; k++ {
		for _, torn := range []bool{false, true} {
			for _, volatile := range []bool{true, false} {
				dir := t.TempDir()
				fs := newCrashFS()
				fs.failAt, fs.torn = k, torn
				acked := c.run(t, fs, dir)
				if torn && !fs.tornOp {
					continue // this operation cannot tear
				}
				if !fs.dead {
					t.Fatalf("%s never happened on the re-run", clean.describe(k))
				}
				if acked > total {
					t.Fatalf("crash at %s acknowledged %d steps of %d", fs.describe(k), acked, total)
				}
				if err := c.check(t, fs.kept(volatile), dir, acked, false); err != nil {
					t.Fatalf("crash at %s (torn=%v), host kept volatile=%v, %d steps acknowledged: %v",
						fs.describe(k), torn, volatile, acked, err)
				}
				runs++
			}
		}
	}
	t.Logf("%d operations, %d crash reopens", n, runs)
}

func enumerateRollbacks(t *testing.T, c crashCase) {
	dir := t.TempDir()
	fs := newCrashFS()
	var images []*crashFS
	fs.onSync = func() { images = append(images, fs.kept(false)) }
	total := c.run(t, fs, dir)
	fs.onSync = nil
	counter := fs.read(filepath.Join(dir, counterFile))
	accepted := 0
	for i, img := range images {
		at := t.TempDir()
		host := newCrashFS()
		for name, ino := range img.names {
			rel, err := filepath.Rel(dir, name)
			if err != nil {
				t.Fatal(err)
			}
			host.put(filepath.Join(at, rel), ino.data)
		}
		host.put(filepath.Join(at, counterFile), counter) // the one file the host cannot rewind
		err := c.check(t, host, at, total, true)
		switch {
		case err == nil:
			accepted++
		case !errors.Is(err, enclave.ErrIntegrity):
			t.Fatalf("rollback to sync point %d of %d: %v", i, len(images), err)
		}
	}
	if accepted == 0 || accepted == len(images) {
		t.Fatalf("%d of %d synced prefixes accepted: the enumeration is not discriminating", accepted, len(images))
	}
	t.Logf("%d synced prefixes, %d accepted as the final state", len(images), accepted)
}

// ---- Durable ----

var crashKey = crypt.Key{1, 2, 3}

const crashObjects = 6

// durableModel is the value version of each key after the first n batches
// of the scenario: batch v writes version v to key 1+v%3.
func durableModel(n int) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for v := 1; v <= n; v++ {
		m[uint64(1+v%3)] = uint64(v)
	}
	return m
}

func durableCase() crashCase {
	cfg := func(fs *crashFS) Config {
		return Config{BlockSize: testBlock, ChunkBlocks: 4, SnapshotEvery: 2, Key: &crashKey, fs: fs}
	}
	return crashCase{
		run: func(t *testing.T, fs *crashFS, dir string) int {
			dur, err := NewDurable(dir, newPartition(t), cfg(fs))
			if err != nil {
				return 0
			}
			defer dur.Close()
			ids := make([]uint64, crashObjects)
			data := make([]byte, crashObjects*testBlock)
			for i := range ids {
				ids[i] = uint64(i + 1)
				fillValue(data[i*testBlock:(i+1)*testBlock], ids[i], 0)
			}
			if dur.Init(ids, data) != nil {
				return 0
			}
			acked := 1
			for v := uint64(1); v <= 5; v++ { // crosses two snapshot compactions
				reqs := store.NewRequests(2, testBlock)
				val := make([]byte, testBlock)
				fillValue(val, 1+v%3, v)
				reqs.SetRow(0, store.OpWrite, 1+v%3, 0, 0, 0, val)
				reqs.SetRow(1, store.OpRead, 4, 0, 1, 1, nil)
				if _, err := dur.BatchAccess(reqs); err != nil {
					return acked
				}
				acked++
			}
			return acked
		},
		check: func(t *testing.T, fs *crashFS, dir string, acked int, final bool) error {
			dur, err := NewDurable(dir, newPartition(t), cfg(fs))
			if err != nil {
				return err
			}
			defer dur.Close()
			if acked == 0 && !dur.Recovered() {
				return nil // Init was never acknowledged: a fresh partition is right
			}
			if !dur.Recovered() {
				return errors.New("acknowledged Init lost: partition reopened fresh")
			}
			epoch := int(dur.Epoch())
			if lo := max(acked-1, 0); epoch < lo || epoch > lo+1 || (final && epoch != lo) {
				return fmt.Errorf("reopened at epoch %d with %d batches acknowledged", epoch, lo)
			}
			model := durableModel(epoch)
			for key := uint64(1); key <= crashObjects; key++ {
				want := make([]byte, testBlock)
				fillValue(want, key, model[key])
				if got := readBack(t, dur, key); !bytes.Equal(got, want) {
					return fmt.Errorf("epoch %d: key %d is not at version %d", epoch, key, model[key])
				}
			}
			return nil
		},
	}
}

func TestCrashPointsDurable(t *testing.T) { enumerateCrashes(t, durableCase()) }

func TestRollbackPrefixesDurable(t *testing.T) { enumerateRollbacks(t, durableCase()) }

// ---- SegDurable ----

func segCase() crashCase {
	cfg := func(fs *crashFS) SegConfig {
		return SegConfig{BlockSize: segTestBlock, SegmentBlocks: 4, Key: &crashKey, fs: fs}
	}
	const n = 10 // 3 segments
	image := func(version int) ([]uint64, []byte) {
		ids := make([]uint64, n)
		data := make([]byte, n*segTestBlock)
		for i := range ids {
			ids[i] = uint64(i * 3)
			copy(data[i*segTestBlock:], segValue(ids[i], version))
		}
		return ids, data
	}
	// Steps: Init, batches 1-2, Restore (a second Init over live state, at
	// the same epoch), batch 3. The model after `batches` batches, `restored`
	// saying whether the Restore image (version 100) is underneath.
	model := func(batches int, restored bool) map[uint64]int {
		m := map[uint64]int{}
		for i := 0; i < n; i++ {
			m[uint64(i*3)] = 0
			if restored {
				m[uint64(i*3)] = 100
			}
		}
		for v := 1; v <= batches; v++ {
			if !restored || v > 2 { // the restored image replaced batches 1-2
				m[uint64(3*v)] = v
			}
		}
		return m
	}
	return crashCase{
		run: func(t *testing.T, fs *crashFS, dir string) int {
			sd, err := NewSegDurable(dir, segBuild, cfg(fs))
			if err != nil {
				return 0
			}
			defer sd.Close()
			if sd.Init(image(0)) != nil {
				return 0
			}
			acked := 1
			batch := func(v int) bool {
				reqs := store.NewRequests(2, segTestBlock)
				reqs.SetRow(0, store.OpWrite, uint64(3*v), 0, 0, 0, segValue(uint64(3*v), v))
				reqs.SetRow(1, store.OpRead, 0, 0, 1, 1, nil)
				_, err := sd.BatchAccess(reqs)
				return err == nil
			}
			for _, step := range []func() bool{
				func() bool { return batch(1) },
				func() bool { return batch(2) },
				func() bool { return sd.Restore(image(100)) == nil },
				func() bool { return batch(3) },
			} {
				if !step() {
					return acked
				}
				acked++
			}
			return acked
		},
		check: func(t *testing.T, fs *crashFS, dir string, acked int, final bool) error {
			sd, err := NewSegDurable(dir, segBuild, cfg(fs))
			if err != nil {
				// A crash inside Init or Restore leaves a directory that must
				// be refused, by name, and wiped; nothing was acknowledged
				// that the refusal loses... except across a Restore, which
				// replaces acknowledged state and so is as unrecoverable
				// mid-way as a first Init.
				if (acked == 0 || acked == 3) && !final && errors.Is(err, ErrInitIncomplete) {
					return nil
				}
				return err
			}
			defer sd.Close()
			if !sd.Recovered() {
				if acked == 0 {
					return nil
				}
				return errors.New("acknowledged Init lost: partition reopened fresh")
			}
			// Steps acknowledged → (batches, restored): 1→(0,-) 2→(1,-)
			// 3→(2,-) 4→(2,R) 5→(3,R); an in-flight step may have landed.
			type state struct {
				batches  int
				restored bool
			}
			states := []state{{0, false}, {0, false}, {1, false}, {2, false}, {2, true}, {3, true}}
			ok := []state{states[acked]}
			if !final && acked+1 < len(states) {
				ok = append(ok, states[acked+1])
			}
			epoch := int(sd.Epoch()) // before the reads below, which are batches too
			for _, st := range ok {
				if epoch != st.batches {
					continue
				}
				good := true
				for key, version := range model(st.batches, st.restored) {
					if !bytes.Equal(segRead(t, sd, key), segValue(key, version)) {
						good = false
					}
				}
				if good {
					return nil
				}
			}
			return fmt.Errorf("reopened at epoch %d holding neither of the states %d acknowledged steps allow", epoch, acked)
		},
	}
}

func TestCrashPointsSegDurable(t *testing.T) { enumerateCrashes(t, segCase()) }

func TestRollbackPrefixesSegDurable(t *testing.T) { enumerateRollbacks(t, segCase()) }

// ---- Journal ----

// journalScript is the scenario's Begin / Complete order: two epochs overlap
// (a pipelined root), and with compaction every 4 records the file is
// rewritten twice.
var journalScript = []struct {
	begin bool
	epoch uint64
}{
	{true, 1}, {false, 1}, {true, 2}, {true, 3}, {false, 3}, {false, 2},
	{true, 4}, {false, 4}, {true, 5}, {true, 6}, {false, 5},
}

func journalCase() crashCase {
	rec := func(e uint64) *JournalEpoch { return testEpochRec(e, 1, 2, 3, 2, testBlock) }
	return crashCase{
		run: func(t *testing.T, fs *crashFS, dir string) int {
			j, _, err := openJournal(fs, dir, nil, nil)
			if err != nil {
				return 0
			}
			defer j.Close()
			j.compactEvery = 4
			for i, step := range journalScript {
				if step.begin {
					err = j.Begin(rec(step.epoch))
				} else {
					err = j.Complete(step.epoch)
				}
				if err != nil && fs.dead {
					return i
				}
				if err != nil {
					t.Fatalf("journal step %d: %v", i, err)
				}
			}
			return len(journalScript)
		},
		check: func(t *testing.T, fs *crashFS, dir string, acked int, final bool) error {
			j, pending, err := openJournal(fs, dir, nil, nil)
			if err != nil {
				return err
			}
			defer j.Close()
			defer releaseAll(pending)
			// What the acknowledged steps, plus possibly the one in flight,
			// require: begun is the last epoch whose Begin returned, and an
			// epoch must be pending unless its Complete was at least called.
			begun, inFlight := uint64(0), uint64(0)
			completeCalled := map[uint64]bool{}
			for i, step := range journalScript {
				switch {
				case i < acked && step.begin:
					begun = step.epoch
				case i < acked, i == acked && !step.begin:
					completeCalled[step.epoch] = true
				case i == acked:
					inFlight = step.epoch
				}
			}
			last := j.LastEpoch()
			if last != begun && (final || last != inFlight) {
				return fmt.Errorf("journal reopened at epoch %d, %d journaled", last, begun)
			}
			seen := map[uint64]bool{}
			for i, je := range pending {
				if je.Epoch == 0 || je.Epoch > last || (i > 0 && je.Epoch <= pending[i-1].Epoch) {
					return fmt.Errorf("pending epoch %d out of place (last %d)", je.Epoch, last)
				}
				seen[je.Epoch] = true
				sameEpochRec(t, je, rec(je.Epoch))
			}
			for e := uint64(1); e <= last; e++ {
				if !completeCalled[e] && !seen[e] {
					return fmt.Errorf("epoch %d was journaled, never completed, and is not pending", e)
				}
			}
			// The journal must go on journaling where it stands.
			if err := j.Begin(rec(last + 1)); err != nil {
				return fmt.Errorf("Begin(%d) after reopen: %w", last+1, err)
			}
			return nil
		},
	}
}

func TestCrashPointsJournal(t *testing.T) { enumerateCrashes(t, journalCase()) }

func TestRollbackPrefixesJournal(t *testing.T) { enumerateRollbacks(t, journalCase()) }
