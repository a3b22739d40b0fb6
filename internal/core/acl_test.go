package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"snoopy/internal/store"
)

func startACLSystem(t *testing.T) *System {
	t.Helper()
	sys := startSystem(t, Config{
		NumLoadBalancers: 2, Ticks: every(t, 2*time.Millisecond),
	}, localSubs(2), 50)
	rules := []ACLRule{
		{User: 1, Object: 10, Op: store.OpRead},
		{User: 1, Object: 10, Op: store.OpWrite},
		{User: 2, Object: 10, Op: store.OpRead}, // read-only on 10
		{User: 2, Object: 20, Op: store.OpWrite},
	}
	if err := sys.EnableACL(rules, 2); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestACLPermittedOperations(t *testing.T) {
	sys := startACLSystem(t)
	v, found, err := do(sys, Request{Op: store.OpRead, Key: 10, User: 1})
	if err != nil || !found {
		t.Fatalf("permitted read denied: %v %v", err, found)
	}
	if trimmed(v) != "init-10" {
		t.Fatalf("permitted read got %q", trimmed(v))
	}
	if _, found, err = do(sys, Request{Op: store.OpWrite, Key: 10, Value: []byte("by-user-1"), User: 1}); err != nil || !found {
		t.Fatalf("permitted write denied: %v %v", err, found)
	}
	v, _, _ = do(sys, Request{Op: store.OpRead, Key: 10, User: 1})
	if trimmed(v) != "by-user-1" {
		t.Fatalf("write did not apply: %q", trimmed(v))
	}
}

// TestACLResolutionFailsClosed: when the permission lookup itself fails —
// here the ACL instance is closed — the epoch is denied before batching: a
// write from a user with no grant fails with the resolution error and
// changes nothing.
func TestACLResolutionFailsClosed(t *testing.T) {
	sys := startACLSystem(t)
	sys.acl.sys.Close()
	if _, _, err := do(sys, Request{Op: store.OpWrite, Key: 10, Value: []byte("bbbbbbbb"), User: 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("write under a failed ACL resolution: err = %v, want %v", err, ErrClosed)
	}
	// A working ACL instance again, to read what the partition holds.
	if err := sys.EnableACL([]ACLRule{{User: 1, Object: 10, Op: store.OpRead}}, 1); err != nil {
		t.Fatal(err)
	}
	v, found, err := do(sys, Request{Op: store.OpRead, Key: 10, User: 1})
	if err != nil || !found || trimmed(v) != "init-10" {
		t.Fatalf("after a failed ACL resolution key 10 holds %q (found=%v, err=%v), want \"init-10\"", trimmed(v), found, err)
	}
}

func TestACLDeniedReadReturnsNull(t *testing.T) {
	sys := startACLSystem(t)
	v, found, err := do(sys, Request{Op: store.OpRead, Key: 10, User: 3}) // user 3 has no rights
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("denied read reported found")
	}
	if !bytes.Equal(v, make([]byte, len(v))) {
		t.Fatalf("denied read leaked data: %q", v)
	}
}

func TestACLDeniedWriteChangesNothing(t *testing.T) {
	sys := startACLSystem(t)
	if _, found, err := do(sys, Request{Op: store.OpWrite, Key: 10, Value: []byte("evil"), User: 2}); err != nil || found {
		t.Fatalf("denied write: err=%v found=%v (should be nil,false)", err, found)
	}
	v, found, err := do(sys, Request{Op: store.OpRead, Key: 10, User: 1})
	if err != nil || !found {
		t.Fatal(err, found)
	}
	if trimmed(v) != "init-10" {
		t.Fatalf("denied write mutated state: %q", trimmed(v))
	}
}

func TestACLWriteOnlyGrantDoesNotAllowRead(t *testing.T) {
	sys := startACLSystem(t)
	if _, found, _ := do(sys, Request{Op: store.OpRead, Key: 20, User: 2}); found {
		t.Fatal("write-only grant allowed a read")
	}
	if _, found, err := do(sys, Request{Op: store.OpWrite, Key: 20, Value: []byte("ok"), User: 2}); err != nil || !found {
		t.Fatalf("granted write denied: %v %v", err, found)
	}
	v, _, _ := do(sys, Request{Op: store.OpRead, Key: 10, User: 1}) // unrelated sanity
	_ = v
}

func TestACLDefaultUserZero(t *testing.T) {
	sys := startACLSystem(t)
	// Plain Read runs as user 0, which has no grants.
	if _, found, _ := read(sys, 10); found {
		t.Fatal("user 0 should be denied without a rule")
	}
}

func TestACLManyUsersConcurrent(t *testing.T) {
	sys := startSystem(t, Config{Ticks: every(t, 2*time.Millisecond)}, localSubs(2), 100)
	var rules []ACLRule
	for u := uint64(1); u <= 8; u++ {
		rules = append(rules, ACLRule{User: u, Object: u, Op: store.OpRead})
	}
	if err := sys.EnableACL(rules, 2); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 16)
	for u := uint64(1); u <= 8; u++ {
		u := u
		go func() {
			if _, found, err := do(sys, Request{Op: store.OpRead, Key: u, User: u}); err != nil || !found {
				errs <- fmt.Errorf("user %d own-object read failed: %v %v", u, err, found)
				return
			}
			if _, found, _ := do(sys, Request{Op: store.OpRead, Key: (u % 8) + 1, User: u}); found && (u%8)+1 != u {
				errs <- fmt.Errorf("user %d read another user's object", u)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestACLInvalidRule(t *testing.T) {
	sys := startSystem(t, Config{}, localSubs(1), 4)
	if err := sys.EnableACL([]ACLRule{{User: 1, Object: 1, Op: 9}}, 1); err == nil {
		t.Fatal("invalid op accepted")
	}
}

func TestACLWithPipelinedEpochs(t *testing.T) {
	sys := startSystem(t, Config{
		NumLoadBalancers: 2, Ticks: every(t, 2*time.Millisecond),
	}, localSubs(2), 50)
	if err := sys.EnableACL([]ACLRule{
		{User: 1, Object: 10, Op: store.OpRead},
		{User: 1, Object: 10, Op: store.OpWrite},
	}, 1); err != nil {
		t.Fatal(err)
	}
	if _, found, err := do(sys, Request{Op: store.OpWrite, Key: 10, Value: []byte("piped"), User: 1}); err != nil || !found {
		t.Fatalf("pipelined ACL write: %v %v", err, found)
	}
	v, found, err := do(sys, Request{Op: store.OpRead, Key: 10, User: 1})
	if err != nil || !found || trimmed(v) != "piped" {
		t.Fatalf("pipelined ACL read: %q %v %v", trimmed(v), found, err)
	}
	if _, found, _ := do(sys, Request{Op: store.OpRead, Key: 10, User: 2}); found {
		t.Fatal("pipelined ACL denied read leaked")
	}
}
