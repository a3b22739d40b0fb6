package replica

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"snoopy/internal/crypt"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

const testBlock = 16

func newGroup(t *testing.T, f, r int) (*Group, []*Replica) {
	t.Helper()
	n := f + r + 1
	reps := make([]*Replica, n)
	for i := range reps {
		reps[i] = NewReplica(suboram.New(suboram.Config{BlockSize: testBlock}))
	}
	g, err := NewGroup(reps, nil, f, r)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1, 2, 3}
	data := make([]byte, 3*testBlock)
	copy(data, []byte("one"))
	copy(data[testBlock:], []byte("two"))
	if err := g.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	return g, reps
}

func readKey(t *testing.T, g *Group, key uint64) ([]byte, bool) {
	t.Helper()
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, key, 0, 0, 0, nil)
	out, err := g.BatchAccess(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return out.Block(0), out.Aux[0] == 1
}

func writeKey(t *testing.T, g *Group, key uint64, val []byte) {
	t.Helper()
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpWrite, key, 0, 0, 0, val)
	if _, err := g.BatchAccess(reqs); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBasicOperation(t *testing.T) {
	g, _ := newGroup(t, 1, 1)
	v, found := readKey(t, g, 2)
	if !found || !bytes.HasPrefix(v, []byte("two")) {
		t.Fatalf("read through group: %q %v", v, found)
	}
	writeKey(t, g, 2, []byte("TWO"))
	v, _ = readKey(t, g, 2)
	if !bytes.HasPrefix(v, []byte("TWO")) {
		t.Fatalf("write through group lost: %q", v)
	}
}

func TestGroupSurvivesCrashes(t *testing.T) {
	g, reps := newGroup(t, 2, 0)
	writeKey(t, g, 1, []byte("before"))
	reps[0].Fail()
	reps[2].Fail()
	v, found := readKey(t, g, 1)
	if !found || !bytes.HasPrefix(v, []byte("before")) {
		t.Fatalf("read with 2 crashed replicas: %q %v", v, found)
	}
}

func TestGroupDetectsRollback(t *testing.T) {
	g, reps := newGroup(t, 0, 1)
	writeKey(t, g, 3, []byte("v1"))
	// Roll one replica back to its initial sealed snapshot. Its reply
	// epoch will lag the trusted counter, so it must be excluded; the
	// fresh replica serves the correct value.
	if err := reps[1].Rollback(); err != nil {
		t.Fatal(err)
	}
	v, found := readKey(t, g, 3)
	if !found || !bytes.HasPrefix(v, []byte("v1")) {
		t.Fatalf("rolled-back replica leaked stale data: %q %v", v, found)
	}
}

func TestGroupAllStaleIsNoQuorum(t *testing.T) {
	g, reps := newGroup(t, 0, 0) // single replica, no tolerance
	writeKey(t, g, 1, []byte("x"))
	if err := reps[0].Rollback(); err != nil {
		t.Fatal(err)
	}
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, 1, 0, 0, 0, nil)
	if _, err := g.BatchAccess(reqs); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("expected ErrNoQuorum, got %v", err)
	}
}

func TestGroupAllCrashedIsNoQuorum(t *testing.T) {
	g, reps := newGroup(t, 1, 0)
	for _, r := range reps {
		r.Fail()
	}
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, 1, 0, 0, 0, nil)
	if _, err := g.BatchAccess(reqs); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("expected ErrNoQuorum, got %v", err)
	}
}

func TestGroupRecoveredStaleReplicaStaysExcluded(t *testing.T) {
	g, reps := newGroup(t, 1, 1)
	writeKey(t, g, 1, []byte("fresh"))
	reps[0].Fail()
	writeKey(t, g, 1, []byte("fresher")) // replica 0 misses this epoch
	reps[0].Recover()
	// Replica 0's epoch now lags; its replies are stale until resynced.
	v, found := readKey(t, g, 1)
	if !found || !bytes.HasPrefix(v, []byte("fresher")) {
		t.Fatalf("stale recovered replica served: %q %v", v, found)
	}
}

// divergentClient wraps a subORAM and corrupts every response.
type divergentClient struct{ inner Client }

func (d divergentClient) Init(ids []uint64, data []byte) error { return d.inner.Init(ids, data) }

func (d divergentClient) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	out, err := d.inner.BatchAccess(reqs)
	if err != nil {
		return nil, err
	}
	if out.Len() > 0 {
		out.Block(0)[0] ^= 0xFF
	}
	return out, nil
}

func TestGroupDetectsDivergence(t *testing.T) {
	reps := []*Replica{
		NewReplica(suboram.New(suboram.Config{BlockSize: testBlock})),
		NewReplica(divergentClient{suboram.New(suboram.Config{BlockSize: testBlock})}),
	}
	g, err := NewGroup(reps, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
		t.Fatal(err)
	}
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, 1, 0, 0, 0, nil)
	if _, err := g.BatchAccess(reqs); !errors.Is(err, ErrDivergence) {
		t.Fatalf("expected ErrDivergence, got %v", err)
	}
}

func TestGroupSizeValidation(t *testing.T) {
	if _, err := NewGroup([]*Replica{NewReplica(nil)}, nil, 1, 1); err == nil {
		t.Fatal("wrong replica count accepted")
	}
	if _, err := NewGroup(nil, nil, -1, 0); err == nil {
		t.Fatal("negative f accepted")
	}
}

func TestTrustedCounterMonotone(t *testing.T) {
	var c TrustedCounter
	if c.Current() != 0 {
		t.Fatal("counter should start at zero")
	}
	prev := uint64(0)
	for i := 0; i < 100; i++ {
		v := c.Increment()
		if v <= prev {
			t.Fatal("counter not monotone")
		}
		prev = v
	}
}

// stalledClient wedges every BatchAccess until released — a replica whose
// host is alive but whose enclave never answers.
type stalledClient struct {
	Client
	release chan struct{}
}

func (s *stalledClient) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	<-s.release
	return s.Client.BatchAccess(reqs)
}

// TestRollbackNeverServedBeforeResync is the §9 rejoin trace test: a
// rolled-back member is excluded (stale epoch) until Resync completes, and
// only then serves clients again — with post-rollback state, not the stale
// snapshot.
func TestRollbackNeverServedBeforeResync(t *testing.T) {
	g, reps := newGroup(t, 0, 1)
	writeKey(t, g, 3, []byte("v1"))
	if err := reps[1].Rollback(); err != nil {
		t.Fatal(err)
	}

	// While rolled back and unsynced, the member must never be served back
	// to clients: with the only fresh member down, the answer is ErrNoQuorum
	// — not the rolled-back member's stale state.
	reps[0].Fail()
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, 3, 0, 0, 0, nil)
	if _, err := g.BatchAccess(reqs); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("rolled-back replica served before resync: err=%v", err)
	}
	reps[0].Recover()
	// Replica 0 missed one epoch while down, so it is stale too; resync
	// needs a fresh donor. Run one clean epoch first? No — no member is
	// fresh. Resync must report that honestly.
	if _, _, err := g.Resync(); !errors.Is(err, ErrNoDonor) {
		t.Fatalf("resync without a fresh donor: err=%v", err)
	}

	// Catch replica 0 up by reinitializing the group state path: roll it
	// forward via rollback+resync is impossible without a donor, so rebuild
	// freshness the way a deployment would — replica 0 rejoins by serving
	// batches once its epoch matches again. Here we reset via Rollback (back
	// to epoch 0 state) and replay nothing: instead verify the donor-based
	// path on a 3-member group below.
	g2, reps2 := newGroup(t, 1, 1)
	writeKey(t, g2, 3, []byte("v2"))
	if err := reps2[2].Rollback(); err != nil {
		t.Fatal(err)
	}
	st := g2.Stats()
	if st.Fresh != 3 {
		t.Fatalf("expected 3 fresh members before rollback batch, got %+v", st)
	}
	// One batch: the rolled-back member replies with a stale epoch and is
	// discarded.
	v, found := readKey(t, g2, 3)
	if !found || !bytes.HasPrefix(v, []byte("v2")) {
		t.Fatalf("stale member leaked: %q %v", v, found)
	}
	st = g2.Stats()
	if st.StaleReplies == 0 {
		t.Fatalf("stale reply not counted: %+v", st)
	}
	if st.Fresh != 2 {
		t.Fatalf("rolled-back member counted fresh: %+v", st)
	}
	// Resync re-admits it with post-rollback state.
	synced, bytes3, err := g2.Resync()
	if err != nil || synced != 1 || bytes3 == 0 {
		t.Fatalf("resync: synced=%d bytes=%d err=%v", synced, bytes3, err)
	}
	// Now the resynced member alone must serve the *current* value.
	reps2[0].Fail()
	reps2[1].Fail()
	v, found = readKey(t, g2, 3)
	if !found || !bytes.HasPrefix(v, []byte("v2")) {
		t.Fatalf("resynced member served wrong state: %q %v", v, found)
	}
	if st := g2.Stats(); st.Resyncs != 1 || st.ResyncEpochs == 0 {
		t.Fatalf("resync stats: %+v", st)
	}
}

// TestAutoHealResyncsLaggingReplica crashes a member for a few epochs;
// with auto-heal enabled, the recovered (now stale) member is resynced
// from a fresh peer without any operator call.
func TestAutoHealResyncsLaggingReplica(t *testing.T) {
	g, reps := newGroup(t, 1, 0)
	g.SetAutoHeal(2)
	reps[1].Fail()
	writeKey(t, g, 1, []byte("a"))
	writeKey(t, g, 1, []byte("b"))
	reps[1].Recover()
	// Recovered but stale: the next batches trip the miss threshold and
	// auto-heal resyncs it at the epoch boundary.
	writeKey(t, g, 1, []byte("c"))
	if st := g.Stats(); st.Resyncs == 0 {
		t.Fatalf("auto-heal did not resync the lagging member: %+v", st)
	}
	// The healed member alone serves the latest value.
	reps[0].Fail()
	v, found := readKey(t, g, 1)
	if !found || !bytes.HasPrefix(v, []byte("c")) {
		t.Fatalf("healed member state: %q %v", v, found)
	}
	if st := g.Stats(); st.Fresh != 1 {
		t.Fatalf("healed member not fresh: %+v", st)
	}
}

// TestAutoHealPromotesSpare kills a member permanently; auto-heal promotes
// a registered standby, loads it from a fresh peer, and the group returns
// to full strength.
func TestAutoHealPromotesSpare(t *testing.T) {
	g, reps := newGroup(t, 1, 0)
	g.SetAutoHeal(2)
	g.AddSpare(NewReplica(suboram.New(suboram.Config{BlockSize: testBlock})))
	reps[1].Fail() // never recovers
	writeKey(t, g, 2, []byte("x1"))
	writeKey(t, g, 2, []byte("x2"))
	writeKey(t, g, 2, []byte("x3"))
	st := g.Stats()
	if st.Promotions != 1 || st.Spares != 0 {
		t.Fatalf("spare not promoted: %+v", st)
	}
	// The promoted member must be fully fresh: it alone serves the latest
	// value when the original survivor fails.
	reps[0].Fail()
	v, found := readKey(t, g, 2)
	if !found || !bytes.HasPrefix(v, []byte("x3")) {
		t.Fatalf("promoted spare state: %q %v", v, found)
	}
}

// TestFinishedMemberReadsIdle: a member whose call completed is unlocked by
// the time BatchAccess returns. Back-to-back batches on an f = 1 group with
// one member down must never find the healthy member busy — a busy skip
// there leaves no fresh reply, which is ErrNoQuorum from a healthy group.
func TestFinishedMemberReadsIdle(t *testing.T) {
	g, reps := newGroup(t, 1, 0)
	reps[1].Fail()
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, 1, 0, 0, 0, nil)
	for i := 0; i < 1000; i++ {
		if _, err := g.BatchAccess(reqs); err != nil {
			t.Fatalf("batch %d: %v (%+v)", i, err, g.Stats())
		}
	}
	if st := g.Stats(); st.BusySkips != 0 {
		t.Fatalf("a finished member read as busy %d times", st.BusySkips)
	}
}

// TestBusyReplicaSkippedNotBlocked verifies the abandoned-call fix: a
// wedged BatchAccess holds the member's lock, but later epochs skip the
// busy member immediately instead of queueing behind it, and once the call
// unwedges the member rejoins via resync.
func TestBusyReplicaSkippedNotBlocked(t *testing.T) {
	release := make(chan struct{})
	stuck := &stalledClient{
		Client:  suboram.New(suboram.Config{BlockSize: testBlock}),
		release: release,
	}
	live := NewReplica(suboram.New(suboram.Config{BlockSize: testBlock}))
	wedged := NewReplica(stuck)
	g, err := NewGroup([]*Replica{live, wedged}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ids := []uint64{1}
	data := make([]byte, testBlock)
	copy(data, []byte("one"))
	if err := g.Init(ids, data); err != nil {
		t.Fatal(err)
	}
	g.SetTimeout(200 * time.Millisecond)

	// First batch abandons the wedged member at the deadline; it keeps
	// holding its lock inside the stalled call.
	writeKey(t, g, 1, []byte("two"))
	// Later batches must return promptly (busy skip, not a 200ms deadline
	// wait behind the held lock) and still serve from the live member.
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		v, found := readKey(t, g, 1)
		if !found || !bytes.HasPrefix(v, []byte("two")) {
			t.Fatalf("read during wedge: %q %v", v, found)
		}
		if d := time.Since(t0); d > 5*time.Second {
			t.Fatalf("batch %d blocked %v behind a wedged member", i, d)
		}
	}
	if st := g.Stats(); st.BusySkips == 0 {
		t.Fatalf("busy member was not skipped: %+v", st)
	}

	// Unwedge: the abandoned call completes, the member is reachable again
	// (stale), and resync re-admits it.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if synced, _, err := g.Resync(); err == nil && synced == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wedged member never became resyncable after release")
		}
		time.Sleep(10 * time.Millisecond)
	}
	live.Fail()
	v, found := readKey(t, g, 1)
	if !found || !bytes.HasPrefix(v, []byte("two")) {
		t.Fatalf("rejoined member state: %q %v", v, found)
	}
}

// TestDigestDuplicateSensitive regression-tests the XOR-fold collision: a
// response set extended by a duplicated row pair must not hash equal (the
// pair cancelled to zero under the XOR fold).
func TestDigestDuplicateSensitive(t *testing.T) {
	base := store.NewRequests(2, testBlock)
	base.SetRow(0, store.OpRead, 10, 0, 0, 0, []byte("aa"))
	base.SetRow(1, store.OpRead, 11, 0, 0, 0, []byte("bb"))
	dup := store.NewRequests(4, testBlock)
	dup.SetRow(0, store.OpRead, 10, 0, 0, 0, []byte("aa"))
	dup.SetRow(1, store.OpRead, 11, 0, 0, 0, []byte("bb"))
	dup.SetRow(2, store.OpRead, 12, 0, 0, 0, []byte("cc"))
	dup.SetRow(3, store.OpRead, 12, 0, 0, 0, []byte("cc"))
	if digestResponses(base) == digestResponses(dup) {
		t.Fatal("duplicated row pair cancelled out of the response digest")
	}
	// Order-independence must survive the fix: same rows, swapped order.
	swapped := store.NewRequests(2, testBlock)
	swapped.SetRow(0, store.OpRead, 11, 0, 0, 0, []byte("bb"))
	swapped.SetRow(1, store.OpRead, 10, 0, 0, 0, []byte("aa"))
	if digestResponses(base) != digestResponses(swapped) {
		t.Fatal("response digest became order-sensitive")
	}
}

// TestDigestAgreesAcrossTableKeys: replicas draw their own per-batch hash
// keys, so the same batch comes back in a different row order under a
// different order stamp from each; the digest — key, found bit and value,
// folded order-free — still agrees, and still tells a differing value apart.
func TestDigestAgreesAcrossTableKeys(t *testing.T) {
	ids := make([]uint64, 200)
	data := make([]byte, len(ids)*testBlock)
	for i := range ids {
		ids[i] = uint64(i)
		data[i*testBlock] = byte(i)
	}
	reqs := store.NewRequests(120, testBlock)
	for i := 0; i < reqs.Len(); i++ {
		reqs.SetRow(i, uint8(i%2), uint64(i*3), 0, uint64(i), uint64(i), []byte{0xee})
	}
	var outs []*store.Requests
	for _, key := range []*crypt.SipKey{{1, 2}, {5, 6}} {
		sub := suboram.New(suboram.Config{BlockSize: testBlock, TestHashKey: key})
		if err := sub.Init(ids, data); err != nil {
			t.Fatal(err)
		}
		out, err := sub.BatchAccess(reqs)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, out)
	}
	if reflect.DeepEqual(outs[0].Key, outs[1].Key) || outs[0].Seq[0] == outs[1].Seq[0] {
		t.Fatal("different table keys gave the same row order and stamp — the comparison is vacuous")
	}
	if digestResponses(outs[0]) != digestResponses(outs[1]) {
		t.Fatal("response digest depends on the replica's table key")
	}
	outs[1].Block(7)[1] ^= 1
	if digestResponses(outs[0]) == digestResponses(outs[1]) {
		t.Fatal("response digest missed a differing value")
	}
}

func TestGroupTimeoutSkipsStalledReplica(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	live := NewReplica(suboram.New(suboram.Config{BlockSize: testBlock}))
	stuck := NewReplica(&stalledClient{
		Client:  suboram.New(suboram.Config{BlockSize: testBlock}),
		release: release,
	})
	g, err := NewGroup([]*Replica{live, stuck}, nil, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Init goes through the stalled wrapper's embedded client directly, so
	// it completes; only BatchAccess stalls.
	ids := []uint64{1}
	data := make([]byte, testBlock)
	copy(data, []byte("one"))
	if err := g.Init(ids, data); err != nil {
		t.Fatal(err)
	}

	// Generous deadline: the live replica must comfortably beat it even
	// under the race detector, while the stalled one never answers.
	g.SetTimeout(2 * time.Second)
	t0 := time.Now()
	v, found := readKey(t, g, 1)
	if d := time.Since(t0); d > 10*time.Second {
		t.Fatalf("stalled replica held the batch for %v despite the deadline", d)
	}
	if !found || !bytes.HasPrefix(v, []byte("one")) {
		t.Fatalf("read with stalled replica: %q %v", v, found)
	}
}
