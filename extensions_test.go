package snoopy_test

import (
	"bytes"
	"testing"
	"time"

	"snoopy"
)

func TestPublicACL(t *testing.T) {
	st, err := snoopy.Open(snoopy.Config{SubORAMs: 2, Lambda: 32, Epoch: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(map[uint64][]byte{10: []byte("secret")}); err != nil {
		t.Fatal(err)
	}
	if err := st.EnableACL([]snoopy.ACLRule{
		{User: 7, Object: 10, Op: snoopy.OpRead},
	}, 1); err != nil {
		t.Fatal(err)
	}
	res := st.Do([]snoopy.Op{{Key: 10, User: 7}})
	if r := res[0]; r.Err != nil || !r.Found || !bytes.HasPrefix(r.Value, []byte("secret")) {
		t.Fatalf("granted read: %q %v %v", r.Value, r.Found, r.Err)
	}
	if res := st.Do([]snoopy.Op{{Key: 10, User: 8}}); res[0].Found {
		t.Fatal("ungranted user read succeeded")
	}
	if res := st.Do([]snoopy.Op{{Write: true, Key: 10, Value: []byte("x"), User: 7}}); res[0].Found {
		t.Fatal("read-only grant allowed write")
	}
}

func TestPublicReplicatedDeployment(t *testing.T) {
	var subs []snoopy.SubORAM
	for i := 0; i < 2; i++ {
		g, err := snoopy.NewReplicatedSubORAM(160, 1, 1, false)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, g)
	}
	st, err := snoopy.OpenWithSubORAMs(snoopy.Config{
		Lambda: 32, Epoch: 2 * time.Millisecond,
	}, subs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(map[uint64][]byte{1: []byte("replicated")}); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := st.Write(1, []byte("v2")); err != nil || !ok {
		t.Fatal(err, ok)
	}
	v, ok, err := st.Read(1)
	if err != nil || !ok || !bytes.HasPrefix(v, []byte("v2")) {
		t.Fatalf("replicated round trip: %q %v %v", v, ok, err)
	}
}

func TestPlanDeploymentForBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs calibration")
	}
	p, err := snoopy.PlanDeploymentForBudget(10_000, 160, 50, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if p.CostPerMonth > 5000 || p.AvgLatency <= 0 {
		t.Fatalf("bad budget plan: %+v", p)
	}
}

func TestDoBatch(t *testing.T) {
	st, err := snoopy.Open(snoopy.Config{SubORAMs: 2, Lambda: 32, Epoch: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Load(map[uint64][]byte{1: []byte("a"), 2: []byte("b")}); err != nil {
		t.Fatal(err)
	}
	res := st.Do([]snoopy.Op{
		{Key: 1},
		{Write: true, Key: 2, Value: []byte("B"), ID: 7},
		{Key: 999},
	})
	if len(res) != 3 {
		t.Fatalf("got %d results", len(res))
	}
	if res[0].Err != nil || !res[0].Found || res[0].Value[0] != 'a' {
		t.Fatalf("read result wrong: %+v", res[0])
	}
	if res[1].Err != nil || !res[1].Found || res[1].Value[0] != 'b' {
		t.Fatalf("write result should carry epoch-start value: %+v", res[1])
	}
	if res[2].Found {
		t.Fatal("absent key found")
	}
	res = st.Do([]snoopy.Op{{Key: 2}})
	if res[0].Value[0] != 'B' {
		t.Fatal("batched write lost")
	}
	// A retry under the same ID returns the original answer, unexecuted.
	res = st.Do([]snoopy.Op{{Write: true, Key: 2, Value: []byte("C"), ID: 7}, {Key: 2}})
	if res[0].Err != nil || res[0].Value[0] != 'b' || res[1].Value[0] != 'B' {
		t.Fatalf("retry of ID 7 re-executed: %+v", res)
	}
}
