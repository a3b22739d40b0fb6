package snoopy_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"snoopy/internal/crypt"
)

// TestCommandLineIntegration builds the real binaries and runs a two-server
// deployment end to end: snoopy-server ×2 + snoopy-client, attested over
// a shared platform key, loading objects and running a workload.
func TestCommandLineIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCommands(t)
	key := crypt.MustNewKey()
	platformHex := hex.EncodeToString(key[:])

	var addrs []string
	var servers []*exec.Cmd
	for i := 0; i < 2; i++ {
		port := freePort(t)
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		srv := exec.Command(filepath.Join(bin, "snoopy-server"),
			"-listen", addr, "-block", "64", "-platform", platformHex)
		srv.Stdout = os.Stderr
		srv.Stderr = os.Stderr
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
		addrs = append(addrs, addr)
	}
	defer func() {
		for _, s := range servers {
			s.Process.Kill()
			s.Wait()
		}
	}()
	for _, addr := range addrs {
		waitListening(t, addr)
	}

	client := exec.Command(filepath.Join(bin, "snoopy-client"),
		"-servers", addrs[0]+","+addrs[1],
		"-platform", platformHex,
		"-block", "64", "-objects", "2000", "-ops", "40",
		"-clients", "4", "-epoch", "20ms")
	var out bytes.Buffer
	client.Stdout = &out
	client.Stderr = &out
	if err := client.Run(); err != nil {
		t.Fatalf("client failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"attested and connected", "throughput:", "latency:"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("client output missing %q:\n%s", want, out.String())
		}
	}
}

// TestServerKillRestartIntegration kills one durable snoopy-server with
// SIGKILL in the middle of a client run and restarts it on the same address
// and data directory. The client — armed with a retry budget — must ride out
// the outage: its in-flight batches fail over to redial + re-attestation and
// the run completes with no failed operation.
func TestServerKillRestartIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCommands(t)
	key := crypt.MustNewKey()
	platformHex := hex.EncodeToString(key[:])
	dataDir := t.TempDir()

	startServer := func(addr string, durable bool) (*exec.Cmd, *syncBuffer) {
		args := []string{"-listen", addr, "-block", "64", "-platform", platformHex}
		if durable {
			args = append(args, "-data", dataDir)
		}
		srv := exec.Command(filepath.Join(bin, "snoopy-server"), args...)
		out := &syncBuffer{}
		srv.Stdout = out
		srv.Stderr = out
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		return srv, out
	}

	victimAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	otherAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	victim, _ := startServer(victimAddr, true)
	other, _ := startServer(otherAddr, false)
	defer func() {
		other.Process.Kill()
		other.Wait()
	}()
	waitListening(t, victimAddr)
	waitListening(t, otherAddr)

	client := exec.Command(filepath.Join(bin, "snoopy-client"),
		"-servers", victimAddr+","+otherAddr,
		"-platform", platformHex,
		"-block", "64", "-objects", "1000", "-ops", "400",
		"-clients", "4", "-epoch", "20ms",
		"-retries", "10")
	clientOut := &syncBuffer{}
	client.Stdout = clientOut
	client.Stderr = clientOut
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	clientDone := make(chan error, 1)
	go func() { clientDone <- client.Wait() }()

	// Wait for the workload phase, let a few epochs land, then crash the
	// durable server the hard way.
	deadline := time.Now().Add(30 * time.Second)
	for !bytes.Contains(clientOut.Bytes(), []byte("running")) {
		if time.Now().After(deadline) {
			t.Fatalf("client never reached the workload:\n%s", clientOut.String())
		}
		select {
		case err := <-clientDone:
			t.Fatalf("client exited early (%v):\n%s", err, clientOut.String())
		case <-time.After(20 * time.Millisecond):
		}
	}
	time.Sleep(300 * time.Millisecond)
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()

	restarted, restartedOut := startServer(victimAddr, true)
	defer func() {
		restarted.Process.Kill()
		restarted.Wait()
	}()
	waitListening(t, victimAddr)

	select {
	case err := <-clientDone:
		if err != nil {
			t.Fatalf("client failed across server restart: %v\n%s", err, clientOut.String())
		}
	case <-time.After(120 * time.Second):
		t.Fatalf("client hung across server restart:\n%s", clientOut.String())
	}
	if bytes.Contains(clientOut.Bytes(), []byte("op failed")) {
		t.Fatalf("operations failed despite retry budget:\n%s", clientOut.String())
	}
	for _, want := range []string{"throughput:", "latency:"} {
		if !bytes.Contains(clientOut.Bytes(), []byte(want)) {
			t.Fatalf("client output missing %q:\n%s", want, clientOut.String())
		}
	}
	if !bytes.Contains(restartedOut.Bytes(), []byte("recovered partition")) {
		t.Fatalf("restarted server did not recover its durable state:\n%s", restartedOut.String())
	}
}

// TestTelemetryEndpointIntegration runs a real snoopy-server and
// snoopy-client, both with -telemetry-addr, drives a workload, and scrapes
// the operator surface of each: /metrics must show the transport serving and
// RPC counters, /trace/epochs must show every epoch stage span, and the
// pprof index must respond.
func TestTelemetryEndpointIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bin := buildCommands(t)
	key := crypt.MustNewKey()
	platformHex := hex.EncodeToString(key[:])

	serverAddr := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	serverTel := fmt.Sprintf("127.0.0.1:%d", freePort(t))
	clientTel := fmt.Sprintf("127.0.0.1:%d", freePort(t))

	srv := exec.Command(filepath.Join(bin, "snoopy-server"),
		"-listen", serverAddr, "-block", "64", "-platform", platformHex,
		"-telemetry-addr", serverTel)
	srvOut := &syncBuffer{}
	srv.Stdout = srvOut
	srv.Stderr = srvOut
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	waitListening(t, serverAddr)
	waitListening(t, serverTel)

	// -telemetry-hold keeps the client's endpoint alive after the workload
	// so the test can scrape it; the client is killed once scraped.
	client := exec.Command(filepath.Join(bin, "snoopy-client"),
		"-servers", serverAddr, "-platform", platformHex,
		"-block", "64", "-objects", "500", "-ops", "40",
		"-clients", "4", "-epoch", "20ms",
		"-telemetry-addr", clientTel, "-telemetry-hold", "2m")
	clientOut := &syncBuffer{}
	client.Stdout = clientOut
	client.Stderr = clientOut
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		client.Process.Kill()
		client.Wait()
	}()

	deadline := time.Now().Add(60 * time.Second)
	for !bytes.Contains(clientOut.Bytes(), []byte("holding telemetry")) {
		if time.Now().After(deadline) {
			t.Fatalf("client never finished its workload:\n%s", clientOut.String())
		}
		time.Sleep(50 * time.Millisecond)
	}

	scrape := func(addr, path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s%s: %v", addr, path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s%s: status %d", addr, path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	// Client surface: the deployment's epoch engine lives here, so its
	// metrics carry the core counters and RPC-side transport counters...
	clientMetrics := scrape(clientTel, "/metrics")
	for _, want := range []string{
		"counter core_requests_total 40\n", // exactly -ops, no more, no less
		"counter transport_retries_total 0\n",
		"counter transport_rpc_failures_total 0\n",
		"hist transport_rpc count ",
		"gauge snoopy_config_suborams 1\n",
	} {
		if !strings.Contains(clientMetrics, want) {
			t.Errorf("client /metrics missing %q:\n%s", want, clientMetrics)
		}
	}
	// ...and its epoch trace records every stage span.
	clientSpans := scrape(clientTel, "/trace/epochs?n=512")
	for _, stage := range []string{"stage_a_batch", "stage_b_suboram", "stage_c_match", `"stage": "epoch"`} {
		if !strings.Contains(clientSpans, stage) {
			t.Errorf("client /trace/epochs missing stage %q:\n%s", stage, clientSpans)
		}
	}

	// Server surface: serving-side transport counters. Replays and stale
	// rejects exist (so operators can alarm on them) and are zero in a
	// clean run.
	serverMetrics := scrape(serverTel, "/metrics")
	for _, want := range []string{
		"counter transport_conns_total 1\n",
		"counter transport_replays_total 0\n",
		"counter transport_stale_rejects_total 0\n",
		"counter suboram_batches_total ",
		"hist transport_batch_serve count ",
	} {
		if !strings.Contains(serverMetrics, want) {
			t.Errorf("server /metrics missing %q:\n%s", want, serverMetrics)
		}
	}
	m := regexp.MustCompile(`counter transport_batches_served_total (\d+)`).FindStringSubmatch(serverMetrics)
	if m == nil || m[1] == "0" {
		t.Errorf("server served no batches per its own telemetry:\n%s", serverMetrics)
	}

	// pprof responds on both surfaces.
	for _, addr := range []string{clientTel, serverTel} {
		if idx := scrape(addr, "/debug/pprof/"); !strings.Contains(idx, "goroutine") {
			t.Errorf("pprof index on %s looks wrong:\n%s", addr, idx)
		}
	}
}

func buildCommands(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	for _, cmd := range []string{"snoopy-server", "snoopy-client"} {
		out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", cmd, err, out)
		}
	}
	return bin
}

// syncBuffer is a bytes.Buffer safe for concurrent writes (process output)
// and reads (test assertions).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

func (b *syncBuffer) String() string { return string(b.Bytes()) }

func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s never started", addr)
}
