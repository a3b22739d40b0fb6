package snoopy_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"snoopy"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
)

// TestServerSurvivesKill9 builds the real snoopy-server binary, runs it with
// -data — in memory, and with -disk-resident on disk, where the partition is
// twice the streaming buffer — kills it with SIGKILL
// mid-deployment, restarts it on the same directory, and verifies the last
// acknowledged write is still readable: the tentpole durability claim,
// exercised through the real process boundary. It then attacks the sealed
// state and verifies the server refuses to start: in memory with a bit flip
// in the image's segment file, on disk by rolling the segment file back to
// an authentic-but-stale copy under the current registry — the per-segment
// rollback the epoch-stamped slots exist to catch.
func TestServerSurvivesKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := t.TempDir()
	out, err := exec.Command("go", "build", "-o", filepath.Join(bin, "snoopy-server"), "./cmd/snoopy-server").CombinedOutput()
	if err != nil {
		t.Fatalf("build snoopy-server: %v\n%s", err, out)
	}
	for _, row := range []struct {
		name    string
		flags   []string
		objects uint64
		// attack damages the state dir; stale is the segment file as the
		// crash left it, epochs behind the reads after the restart.
		attack func(t *testing.T, seg string, stale []byte)
	}{
		{"memory", nil, 100, func(t *testing.T, seg string, _ []byte) {
			b, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			// One segment, two parity slots: damage both.
			b[20] ^= 0x80
			b[len(b)/2+20] ^= 0x80
			if err := os.WriteFile(seg, b, 0o600); err != nil {
				t.Fatal(err)
			}
		}},
		// Segments of 512 blocks are the streaming buffer; 1024 objects make
		// the partition two of them.
		{"disk", []string{"-disk-resident"}, 1024, func(t *testing.T, seg string, stale []byte) {
			if err := os.WriteFile(seg, stale, 0o600); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			serverSurvivesKill9(t, filepath.Join(bin, "snoopy-server"), row.flags, row.objects, row.attack)
		})
	}
}

func serverSurvivesKill9(t *testing.T, server string, flags []string, objects uint64,
	attack func(t *testing.T, seg string, stale []byte)) {
	key := crypt.MustNewKey()
	platformHex := hex.EncodeToString(key[:])
	// The library-side platform shares the binary's root key, so attestation
	// verifies across the process boundary.
	platform := enclave.NewPlatformFromKey(key)
	measurement := snoopy.Measure("snoopy-suboram-v1")
	dataDir := filepath.Join(t.TempDir(), "part0")

	// startServer starts a child that exited closes on exit, once its
	// output is in log. However the test ends, its cleanup kills the child
	// and waits for it.
	startServer := func(addr string) (srv *exec.Cmd, log *bytes.Buffer, exited <-chan struct{}) {
		log = new(bytes.Buffer)
		srv = exec.Command(server, append([]string{
			"-listen", addr, "-block", "64", "-platform", platformHex, "-data", dataDir}, flags...)...)
		srv.Stdout = log
		srv.Stderr = log
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			srv.Wait()
			close(done)
		}()
		t.Cleanup(func() {
			srv.Process.Kill()
			<-done
		})
		return srv, log, done
	}
	openStore := func(addr string) *snoopy.Store {
		sub, err := snoopy.DialSubORAM(addr, platform, measurement)
		if err != nil {
			t.Fatalf("dial %s: %v", addr, err)
		}
		st, err := snoopy.OpenWithSubORAMs(snoopy.Config{BlockSize: 64, Epoch: 5 * time.Millisecond}, []snoopy.SubORAM{sub})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	segPath := func() string {
		matches, err := filepath.Glob(filepath.Join(dataDir, "segments", "segments-*.dat"))
		if err != nil || len(matches) != 1 {
			t.Fatalf("segment data file: matches=%v err=%v", matches, err)
		}
		return matches[0]
	}

	addr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	srv, _, exited := startServer(addr)
	waitListening(t, addr)

	st := openStore(addr)
	load := map[uint64][]byte{}
	for id := uint64(1); id <= objects; id++ {
		load[id] = []byte(fmt.Sprintf("object-%d-initial", id))
	}
	if err := st.Load(load); err != nil {
		t.Fatalf("Load: %v", err)
	}
	// The acknowledged write the crash must not lose.
	if _, _, err := st.Write(42, []byte("written-before-crash")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	st.Close()
	stale, err := os.ReadFile(segPath())
	if err != nil {
		t.Fatal(err)
	}

	// kill -9: no shutdown path runs.
	if err := srv.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-exited

	addr2 := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	srv2, log2, exited2 := startServer(addr2)
	waitListening(t, addr2)

	st2 := openStore(addr2)
	got, ok, err := st2.Read(42)
	if err != nil || !ok {
		t.Fatalf("Read(42) after restart: ok=%v err=%v", ok, err)
	}
	if want := "written-before-crash"; !bytes.HasPrefix(got, []byte(want)) {
		t.Fatalf("Read(42) = %q, want prefix %q", got, want)
	}
	got, ok, err = st2.Read(7)
	if err != nil || !ok || !bytes.HasPrefix(got, []byte("object-7-initial")) {
		t.Fatalf("Read(7) after restart = %q ok=%v err=%v", got, ok, err)
	}
	st2.Close()
	srv2.Process.Kill()
	<-exited2
	if !bytes.Contains(log2.Bytes(), []byte("recovered partition")) {
		t.Fatalf("restarted server did not report recovery:\n%s", log2.String())
	}

	// The attacked state must make the next start fail loudly.
	attack(t, segPath(), stale)
	addr3 := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	srv3, log3, exited3 := startServer(addr3)
	select {
	case <-exited3:
		if srv3.ProcessState.Success() {
			t.Fatalf("server started on attacked state:\n%s", log3.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("server did not exit on attacked state")
	}
	if !bytes.Contains(log3.Bytes(), []byte("unusable")) {
		t.Fatalf("attacked-state failure not reported:\n%s", log3.String())
	}
}
