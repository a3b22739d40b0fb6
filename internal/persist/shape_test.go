package persist

// Leakage and allocation guards of the per-epoch durable path: the bytes
// written are the exported closed forms of public parameters, a steady-state
// logged epoch allocates nothing, and it costs exactly two syncs per process.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/telemetry"
)

// stubPartition answers every batch with one preallocated response, so what
// AllocsPerRun sees around it is the persistence step alone. Over an image
// (the disk placement) it commits one store epoch per delivery, as the scans
// do.
type stubPartition struct {
	out   *store.Requests
	outs  []*store.Requests
	image suboram.BlockStore
}

func (s *stubPartition) Deliver(_ store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	s.outs = s.outs[:0]
	for range reqs {
		s.outs = append(s.outs, s.out)
	}
	if s.image != nil {
		s.image.Begin()
		return s.outs, s.image.Commit()
	}
	return s.outs, nil
}
func (*stubPartition) Export() ([]uint64, []byte, error) { return nil, nil, nil }
func (*stubPartition) Restore([]uint64, []byte) error    { return nil }

func openStub(t *testing.T, dir string, cfg Config, out *store.Requests) *Durable {
	t.Helper()
	dur, err := NewDurable(dir, cfg, func(scan suboram.BlockStore) Partition { return &stubPartition{out: out, image: scan} })
	if err != nil {
		t.Fatal(err)
	}
	if err := dur.Init(nil, nil); err != nil {
		t.Fatal(err)
	}
	return dur
}

// distinct is a sendable batch of n reads of distinct keys.
func distinct(n int) *store.Requests {
	r := store.NewRequests(n, testBlock)
	for i := 0; i < n; i++ {
		r.SetRow(i, store.OpRead, uint64(i+1), 0, 0, 0, nil)
	}
	return sendable(r)
}

// TestWALRecordLenClosedForm: a delivery of one batch of n rows grows the wal
// by WALRecordLen(n) bytes; an empty batch is refused by the delivery gate
// and grows it by none.
func TestWALRecordLenClosedForm(t *testing.T) {
	for _, rows := range []int{0, 1, 5, 24} {
		dir := t.TempDir()
		dur := openStub(t, dir, Config{BlockSize: testBlock}, nil)
		before := walOff(dur)
		want := before + int64(WALRecordLen(rows, testBlock))
		if rows == 0 {
			if _, err := dur.BatchAccess(store.NewRequests(0, testBlock)); err == nil {
				t.Fatal("an empty batch was accepted")
			}
			want = before
		} else if _, err := dur.BatchAccess(distinct(rows)); err != nil {
			t.Fatal(err)
		}
		dur.Close()
		st, err := os.Stat(filepath.Join(dir, walFile))
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Size(); got != want {
			t.Fatalf("%d rows: wal holds %d bytes, want %d (WALRecordLen says %d per record)", rows, got, want, WALRecordLen(rows, testBlock))
		}
	}
}

// TestDurableEpochTwoSyncsNoAllocs: a steady-state Durable.Deliver
// creates and renames nothing and costs one counter sync. In the memory
// placement that follows one wal sync and allocates nothing; the disk
// placement keeps no wal at all (its image commit is the store's).
func TestDurableEpochTwoSyncsNoAllocs(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := telemetry.NewRegistry()
			dur := openStub(t, dir, Config{BlockSize: testBlock, Disk: pl.disk, SnapshotEvery: 1 << 30, Telemetry: reg},
				store.NewRequests(8, testBlock))
			defer dur.Close()
			reqs := []*store.Requests{distinct(8)}
			step := func() {
				if _, err := dur.Deliver(store.DeliveryTag{}, reqs); err != nil {
					t.Fatal(err)
				}
			}
			step() // grows the record buffer once
			before, _ := os.ReadDir(dir)
			wal, ctr := reg.Counter(`persist_syncs_total{log="wal"}`), reg.Counter(`persist_syncs_total{log="counter"}`)
			w0, c0 := wal.Value(), ctr.Value()
			const runs = 20
			if allocs := testing.AllocsPerRun(runs, step); allocs != 0 && !pl.disk {
				t.Fatalf("steady-state Durable.Deliver allocates %.1f times per epoch", allocs)
			}
			// AllocsPerRun runs the function once more than it reports, to warm up.
			wantWAL := map[bool]uint64{false: runs + 1, true: 0}[pl.disk]
			if w, c := wal.Value()-w0, ctr.Value()-c0; w != wantWAL || c != runs+1 {
				t.Fatalf("%d epochs cost %d wal syncs and %d counter syncs, want %d and %d", runs+1, w, c, wantWAL, runs+1)
			}
			wantBytes := map[bool]uint64{false: uint64((runs + 2) * WALRecordLen(8, testBlock)), true: 0}[pl.disk]
			if got := reg.Counter(`persist_bytes_written_total{log="wal"}`).Value(); got != wantBytes {
				t.Fatalf("persist_bytes_written_total{wal} = %d after %d epochs, want %d", got, runs+2, wantBytes)
			}
			if _, err := os.Stat(filepath.Join(dir, walFile)); pl.disk != errors.Is(err, os.ErrNotExist) {
				t.Fatalf("wal file: %v, disk placement %v", err, pl.disk)
			}
			after, _ := os.ReadDir(dir)
			if len(after) != len(before) {
				t.Fatalf("steady-state epochs changed the directory: %d entries, then %d", len(before), len(after))
			}
		})
	}
}

// TestJournalEpochNoAllocs: a steady-state Begin + Complete allocates nothing
// (the record is encoded and sealed in the log's one reused buffer).
func TestJournalEpochNoAllocs(t *testing.T) {
	j, _, err := OpenJournal(t.TempDir(), nil, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.compactEvery = 1 << 30
	rec := testEpochRec(1, 1, 2, 24, testBlock)
	step := func() {
		if err := j.Begin(rec); err != nil {
			t.Fatal(err)
		}
		if err := j.Complete(rec.Epoch); err != nil {
			t.Fatal(err)
		}
		rec.Epoch++
	}
	step()
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Fatalf("steady-state Journal.Begin + Complete allocates %.1f times per epoch", allocs)
	}
}

// TestDeliveryIsOneEpoch: an L = 2 delivery is one epoch in either
// placement — one counter bump — not one per batch. The memory placement
// grows the wal by one record of WALRecordLen(2α) bytes and syncs twice in
// all (wal, counter); the disk placement commits the image once and syncs
// four times in all (data, registry, directory, counter). Both batches are
// applied, in order.
func TestDeliveryIsOneEpoch(t *testing.T) {
	const alpha = 3
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			fs, reg := newCrashFS(), telemetry.NewRegistry()
			cfg := testConfig(pl.disk)
			cfg.fs, cfg.Telemetry = fs, reg
			dur, err := NewDurable(t.TempDir(), cfg, newPartition)
			if err != nil {
				t.Fatal(err)
			}
			defer dur.Close()
			loadObjects(t, dur, 10)
			delivery := make([]*store.Requests, 2)
			for b := range delivery {
				reqs := store.NewRequests(alpha, testBlock)
				for r := 0; r < alpha; r++ {
					key := uint64(1 + b*alpha + r)
					val := make([]byte, testBlock)
					fillValue(val, key, 7)
					reqs.SetRow(r, store.OpWrite, key, 0, uint64(r), uint64(r), val)
				}
				delivery[b] = sendable(reqs)
			}
			epoch, storeEpoch, walBytes := dur.Epoch(), dur.image.Epoch(), walOff(dur)
			ctr := reg.Counter(`persist_syncs_total{log="counter"}`)
			c0, syncs := ctr.Value(), 0
			fs.onSync = func() { syncs++ }
			outs, err := dur.Deliver(store.DeliveryTag{}, delivery)
			fs.onSync = nil
			if err != nil {
				t.Fatal(err)
			}
			if len(outs) != 2 || dur.Epoch() != epoch+1 || ctr.Value() != c0+1 {
				t.Fatalf("%d responses; epoch %d → %d, counter syncs +%d: want 2, one epoch, one counter bump",
					len(outs), epoch, dur.Epoch(), ctr.Value()-c0)
			}
			wantSyncs, wantWAL, wantStore := 2, int64(WALRecordLen(2*alpha, testBlock)), storeEpoch
			if pl.disk {
				wantSyncs, wantWAL, wantStore = 4, 0, storeEpoch+1
			}
			if syncs != wantSyncs || walOff(dur)-walBytes != wantWAL || dur.image.Epoch() != wantStore {
				t.Fatalf("one delivery: %d syncs, wal +%d B, store epoch %d → %d; want %d, +%d B, %d",
					syncs, walOff(dur)-walBytes, storeEpoch, dur.image.Epoch(), wantSyncs, wantWAL, wantStore)
			}
			for key := uint64(1); key <= 2*alpha; key++ {
				expectValue(t, dur, key, 7)
			}
		})
	}
}

// walOff is the wal's length, 0 in the disk placement, which keeps none.
func walOff(dur *Durable) int64 {
	if dur.log == nil {
		return 0
	}
	return dur.log.off
}

// TestDeliveryBeforeInitRefused: a partition with no image refuses a
// delivery in either placement, so its counter stays at 0 and it reopens
// fresh; an acknowledged epoch with no image would reopen as a rollback.
func TestDeliveryBeforeInitRefused(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			dir := t.TempDir()
			dur := openDurable(t, dir, testConfig(pl.disk))
			reqs := store.NewRequests(1, testBlock)
			reqs.SetRow(0, store.OpRead, 1, 0, 0, 0, nil)
			if _, err := dur.BatchAccess(sendable(reqs)); err == nil || dur.Epoch() != 0 {
				t.Fatalf("delivery before Init: err=%v, epoch %d", err, dur.Epoch())
			}
			dur.Close()
			dur = openDurable(t, dir, testConfig(pl.disk))
			defer dur.Close()
			loadObjects(t, dur, 4)
			expectValue(t, dur, 2, 0)
		})
	}
}
