package snoopy_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snoopy"
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
