package snoopy_test

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snoopy"
	"snoopy/internal/store"
)

// TestOpenRefusesJournalWithoutDataDir: a journaled root replays a crashed
// epoch onto its partitions before the caller's Load, so over volatile
// in-process partitions the Load would overwrite a write the replay
// acknowledged. Open fails closed instead, naming both fields.
func TestOpenRefusesJournalWithoutDataDir(t *testing.T) {
	st, err := snoopy.Open(snoopy.Config{BlockSize: 32, JournalDir: t.TempDir()})
	if err == nil {
		st.Close()
		t.Fatal("Open accepted JournalDir without DataDir")
	}
	if !strings.Contains(err.Error(), "JournalDir") || !strings.Contains(err.Error(), "DataDir") {
		t.Fatalf("error %q does not name JournalDir and DataDir", err)
	}
}

// TestOpenPlacements drives the one partition constructor through Open: its
// placement rule's rejections, and every placement round-tripping Load and a
// write, then reopening — recovered, with the write, exactly when durable.
func TestOpenPlacements(t *testing.T) {
	const block = 32
	for _, row := range []struct {
		name    string
		cfg     func(dir string) snoopy.Config
		durable bool
		wantErr string // substring of Open's error; "" opens
	}{
		{"memory", func(string) snoopy.Config { return snoopy.Config{} }, false, ""},
		{"sealed", func(string) snoopy.Config { return snoopy.Config{Sealed: true} }, false, ""},
		{"durable memory", func(dir string) snoopy.Config { return snoopy.Config{DataDir: dir} }, true, ""},
		{"durable disk", func(dir string) snoopy.Config { return snoopy.Config{DataDir: dir, DiskResident: true} }, true, ""},
		{"disk without a directory", func(string) snoopy.Config { return snoopy.Config{DiskResident: true} }, false,
			"needs a data directory"},
		{"disk and sealed", func(dir string) snoopy.Config {
			return snoopy.Config{DataDir: dir, DiskResident: true, Sealed: true}
		}, false, "cannot also be sealed"},
		{"another S", func(dir string) snoopy.Config {
			// A directory persisted under S = 2, reopened under S = 3.
			st, err := snoopy.Open(snoopy.Config{BlockSize: block, SubORAMs: 2, DataDir: dir})
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
			return snoopy.Config{DataDir: dir, SubORAMs: 3}
		}, false, "holds 2 partitions, configured 3"},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := row.cfg(filepath.Join(t.TempDir(), "data"))
			cfg.BlockSize, cfg.Lambda, cfg.Epoch = block, 32, time.Millisecond
			if cfg.SubORAMs == 0 {
				cfg.SubORAMs = 2
			}
			st, err := snoopy.Open(cfg)
			if row.wantErr != "" {
				if err == nil {
					st.Close()
					t.Fatalf("Open succeeded, want an error containing %q", row.wantErr)
				}
				if !strings.Contains(err.Error(), row.wantErr) {
					t.Fatalf("Open: %v, want an error containing %q", err, row.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if st.Recovered() {
				t.Fatal("a fresh store reported recovered")
			}
			objects := map[uint64][]byte{}
			for id := uint64(0); id < 64; id++ {
				objects[id] = []byte{byte(id)}
			}
			if err := st.Load(objects); err != nil {
				t.Fatal(err)
			}
			readOK := func(st *snoopy.Store, key uint64, want string) {
				t.Helper()
				res := st.Do([]snoopy.Op{{Key: key}})[0]
				if res.Err != nil || !res.Found || !bytes.HasPrefix(res.Value, []byte(want)) {
					t.Fatalf("Read(%d) = %q found=%v err=%v, want %q", key, res.Value, res.Found, res.Err, want)
				}
			}
			res := st.Do([]snoopy.Op{{Write: true, Key: 7, Value: []byte("written")}})[0]
			if res.Err != nil || !res.Found || !bytes.Equal(res.Value[:1], []byte{7}) {
				t.Fatalf("Write(7): previous %q found=%v err=%v", res.Value, res.Found, res.Err)
			}
			readOK(st, 7, "written")
			st.Close()

			re, err := snoopy.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Recovered() != row.durable {
				t.Fatalf("reopen: Recovered() = %v, want %v", re.Recovered(), row.durable)
			}
			if row.durable {
				readOK(re, 7, "written")
				readOK(re, 9, "\x09")
			}
		})
	}
}

// oneBatchOnly is a SubORAM with BatchAccess alone: it hides the Deliver of
// the partition it wraps.
type oneBatchOnly struct{ snoopy.SubORAM }

// TestOneBatchSubORAMOnlyAtOneLoadBalancer: OpenWithSubORAMs drives a
// SubORAM without Deliver only at L = 1, where an epoch's delivery is
// exactly one batch. At L = 2 it refuses one, naming Deliver, rather than
// apply an epoch's batches one at a time; a partition with Deliver opens.
func TestOneBatchSubORAMOnlyAtOneLoadBalancer(t *testing.T) {
	const block = 32
	local := func() snoopy.SubORAM { return snoopy.NewLocalSubORAM(block, 1, false) }
	st, err := snoopy.OpenWithSubORAMs(snoopy.Config{BlockSize: block, LoadBalancers: 2},
		[]snoopy.SubORAM{local(), oneBatchOnly{local()}})
	if err == nil {
		st.Close()
		t.Fatal("a one-batch SubORAM accepted at L = 2")
	}
	if !strings.Contains(err.Error(), "Deliver") {
		t.Fatalf("error %q does not name Deliver", err)
	}
	for _, row := range []struct {
		lbs  int
		subs []snoopy.SubORAM
	}{
		{1, []snoopy.SubORAM{oneBatchOnly{local()}, oneBatchOnly{local()}}},
		{2, []snoopy.SubORAM{local(), local()}},
	} {
		st, err := snoopy.OpenWithSubORAMs(snoopy.Config{BlockSize: block, Lambda: 32, LoadBalancers: row.lbs}, row.subs)
		if err != nil {
			t.Fatalf("L = %d: %v", row.lbs, err)
		}
		if err := st.Load(map[uint64][]byte{1: []byte("one"), 2: []byte("two")}); err != nil {
			t.Fatal(err)
		}
		put, err := st.WriteAsync(2, []byte("new"))
		if err != nil {
			t.Fatal(err)
		}
		get, err := st.ReadAsync(1)
		if err != nil {
			t.Fatal(err)
		}
		st.Flush()
		if _, _, err := put(); err != nil {
			t.Fatal(err)
		}
		if v, ok, err := get(); err != nil || !ok || !bytes.HasPrefix(v, []byte("one")) {
			t.Fatalf("L = %d: read %q %v %v", row.lbs, v, ok, err)
		}
		get, err = st.ReadAsync(2)
		if err != nil {
			t.Fatal(err)
		}
		st.Flush()
		if v, ok, err := get(); err != nil || !ok || !bytes.HasPrefix(v, []byte("new")) {
			t.Fatalf("L = %d: read %q %v %v after a write", row.lbs, v, ok, err)
		}
		st.Close()
	}
}

// downSubORAM is a one-batch SubORAM whose every batch fails.
type downSubORAM struct{ snoopy.SubORAM }

func (downSubORAM) BatchAccess(*store.Requests) (*store.Requests, error) {
	return nil, errors.New("partition down")
}

// TestFailoverHandsBackTheGivenSubORAM: a Failover hook receives as old the
// SubORAM it was given, not the store's wrapper around a one-batch one, and
// its replacement serves the next epochs.
func TestFailoverHandsBackTheGivenSubORAM(t *testing.T) {
	const block = 32
	dead := downSubORAM{snoopy.NewLocalSubORAM(block, 1, false)}
	olds := make(chan snoopy.SubORAM, 1)
	st, err := snoopy.OpenWithSubORAMs(snoopy.Config{BlockSize: block, Lambda: 32,
		Failover: func(_ int, old snoopy.SubORAM) (snoopy.SubORAM, error) {
			olds <- old
			return oneBatchOnly{snoopy.NewLocalSubORAM(block, 1, false)}, nil
		}}, []snoopy.SubORAM{dead})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(map[uint64][]byte{1: []byte("one")}); err != nil {
		t.Fatal(err)
	}
	read := func() error {
		get, err := st.ReadAsync(1)
		if err != nil {
			t.Fatal(err)
		}
		st.Flush()
		_, _, err = get()
		return err
	}
	for epoch := 0; epoch < 3; epoch++ { // the failed epochs that trip failover
		if read() == nil {
			t.Fatal("a dead partition answered")
		}
	}
	select {
	case old := <-olds:
		if old != dead {
			t.Fatalf("the hook received %T, want the SubORAM it was given", old)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("failover never called")
	}
	for deadline := time.Now().Add(10 * time.Second); read() != nil; {
		if time.Now().After(deadline) {
			t.Fatal("the replacement never answered")
		}
	}
}
