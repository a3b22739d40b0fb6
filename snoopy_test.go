package snoopy_test

import (
	"bytes"
	"net"
	"testing"
	"time"

	"snoopy"
	"snoopy/internal/enclave"
	"snoopy/internal/transport"
)

func TestPublicAPIQuickstart(t *testing.T) {
	st, err := snoopy.Open(snoopy.Config{
		SubORAMs: 3, LoadBalancers: 2, Lambda: 32, Epoch: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(map[uint64][]byte{
		1: []byte("hello"),
		2: []byte("world"),
		9: []byte("nine"),
	}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Read(1)
	if err != nil || !ok || !bytes.HasPrefix(v, []byte("hello")) {
		t.Fatalf("read: %q %v %v", v, ok, err)
	}
	prev, ok, err := st.Write(2, []byte("updated"))
	if err != nil || !ok || !bytes.HasPrefix(prev, []byte("world")) {
		t.Fatalf("write: %q %v %v", prev, ok, err)
	}
	v, _, _ = st.Read(2)
	if !bytes.HasPrefix(v, []byte("updated")) {
		t.Fatalf("read-after-write: %q", v)
	}
	if _, ok, _ := st.Read(12345); ok {
		t.Fatal("unknown key reported ok")
	}
	if st.Stats().Epoch == 0 {
		t.Fatal("no epochs ran")
	}
}

func TestPublicAPIManualEpochs(t *testing.T) {
	st, err := snoopy.Open(snoopy.Config{SubORAMs: 2, Lambda: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(map[uint64][]byte{7: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	get, err := st.ReadAsync(7)
	if err != nil {
		t.Fatal(err)
	}
	st.Flush()
	v, ok, err := get()
	if err != nil || !ok || v[0] != 'x' {
		t.Fatalf("manual epoch read: %q %v %v", v, ok, err)
	}
}

func TestPublicAPIRemote(t *testing.T) {
	platform := snoopy.NewPlatform()
	m := snoopy.Measure("suboram-v1")
	var subs []snoopy.SubORAM
	for i := 0; i < 2; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go transport.ServeSubORAM(l, snoopy.NewLocalSubORAM(160, 0, false), platform, enclave.Measurement(m), nil)
		sub, err := snoopy.DialSubORAM(l.Addr().String(), platform, m)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	st, err := snoopy.OpenWithSubORAMs(snoopy.Config{
		LoadBalancers: 1, Lambda: 32, Epoch: 2 * time.Millisecond,
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(map[uint64][]byte{5: []byte("remote")}); err != nil {
		t.Fatal(err)
	}
	v, ok, err := st.Read(5)
	if err != nil || !ok || !bytes.HasPrefix(v, []byte("remote")) {
		t.Fatalf("remote read: %q %v %v", v, ok, err)
	}
}

func TestPlanDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs calibration")
	}
	// Generous targets so the test passes even when calibration runs under
	// the race detector's ~20x slowdown.
	p, err := snoopy.PlanDeployment(10_000, 160, 50, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p.LoadBalancers < 1 || p.SubORAMs < 1 || p.CostPerMonth <= 0 {
		t.Fatalf("degenerate plan: %+v", p)
	}
}
