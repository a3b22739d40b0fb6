package persist

// Crash-point enumeration: every sealed file of every durable structure,
// every mutating file operation, in turn — not a sample.
//
// For each structure (Durable in either placement, Journal) a fixed scenario
// runs once on a crashFS to count its operations. It is then re-run once per
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

// The partition scenario, in either placement: Init, three deliveries, a
// second Init over live state, three more deliveries, the last of two
// batches (L = 2). Batch v writes version v to key 3v; the second Init's
// image holds version 100 everywhere. With an image every second logged
// epoch, the memory placement writes one before delivery 3 and one before
// the two-batch delivery, besides the two Inits'. A reopen between the
// two-batch delivery's batches would hold key 18 at version 6 and key 21
// at 100: neither state the check allows.
const crashObjects = 10 // three 4-block segments, the last one partial

// crashSteps are the scenario's steps: a delivery (its batches' versions)
// or, {0}, an Init.
var crashSteps = [][]int{{0}, {1}, {2}, {3}, {0}, {4}, {5}, {6, 7}}

func crashImage(version int) ([]uint64, []byte) {
	ids := make([]uint64, crashObjects)
	data := make([]byte, crashObjects*testBlock)
	for i := range ids {
		ids[i] = uint64(i * 3)
		fillValue(data[i*testBlock:(i+1)*testBlock], ids[i], uint64(version))
	}
	return ids, data
}

// crashDelivery is a delivery step's batches: batch v writes version v to
// key 3v and reads key 0.
func crashDelivery(step []int) []*store.Requests {
	var delivery []*store.Requests
	for _, v := range step {
		reqs := store.NewRequests(2, testBlock)
		val := make([]byte, testBlock)
		fillValue(val, uint64(3*v), uint64(v))
		reqs.SetRow(0, store.OpWrite, uint64(3*v), 0, 0, 0, val)
		reqs.SetRow(1, store.OpRead, 0, 0, 1, 1, nil)
		delivery = append(delivery, sendable(reqs))
	}
	return delivery
}

// crashModel is every key's version after the first steps of the scenario,
// and the epoch (the deliveries acknowledged) it is at.
func crashModel(steps int) (map[uint64]uint64, int) {
	m, deliveries := map[uint64]uint64{}, 0
	for i, step := range crashSteps[:steps] {
		if step[0] == 0 {
			for j := 0; j < crashObjects; j++ {
				m[uint64(j*3)] = map[bool]uint64{true: 0, false: 100}[i == 0]
			}
			continue
		}
		for _, v := range step {
			m[uint64(3*v)] = uint64(v)
		}
		deliveries++
	}
	return m, deliveries
}

func durableCase(disk bool) crashCase {
	cfg := func(fs *crashFS) Config {
		c := testConfig(disk)
		c.SnapshotEvery, c.Key, c.fs = 2, &crashKey, fs
		return c
	}
	return crashCase{
		run: func(t *testing.T, fs *crashFS, dir string) int {
			dur, err := NewDurable(dir, cfg(fs), newPartition)
			if err != nil {
				return 0
			}
			defer dur.Close()
			for acked, step := range crashSteps {
				if step[0] == 0 {
					err = dur.Init(crashImage(map[bool]int{true: 0, false: 100}[acked == 0]))
				} else {
					_, err = dur.Deliver(store.DeliveryTag{}, crashDelivery(step))
				}
				if err != nil {
					return acked
				}
			}
			return len(crashSteps)
		},
		check: func(t *testing.T, fs *crashFS, dir string, acked int, final bool) error {
			dur, err := NewDurable(dir, cfg(fs), newPartition)
			if err != nil {
				return err
			}
			defer dur.Close()
			if !dur.Recovered() {
				if acked == 0 {
					return nil // Init was never acknowledged: a fresh partition is right
				}
				return errors.New("acknowledged Init lost: partition reopened fresh")
			}
			// The acknowledged steps' state, or — a crash, not a rollback —
			// the one the step in flight leads to, which may have landed.
			epoch := int(dur.Epoch()) // before the reads below, which are deliveries too
			for steps := max(acked, 1); steps <= acked+1 && steps <= len(crashSteps); steps++ {
				model, deliveries := crashModel(steps)
				if epoch != deliveries || (final && steps != acked) {
					continue
				}
				good := true
				for key, version := range model {
					want := make([]byte, testBlock)
					fillValue(want, key, version)
					good = good && bytes.Equal(readBack(t, dur, key), want)
				}
				if good {
					return nil
				}
			}
			return fmt.Errorf("reopened at epoch %d holding neither of the states %d acknowledged steps allow", epoch, acked)
		},
	}
}

func TestCrashPointsDurable(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) { enumerateCrashes(t, durableCase(pl.disk)) })
	}
}

func TestRollbackPrefixesDurable(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) { enumerateRollbacks(t, durableCase(pl.disk)) })
	}
}

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
	rec := func(e uint64) *JournalEpoch { return testEpochRec(e, 1, 2, 2, testBlock) }
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
