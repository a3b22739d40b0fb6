package replica

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"

	"snoopy/internal/crypt"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
)

const testBlock = 16

var errDown = errors.New("member down")

// fault is a test member: a Node whose host can be killed (every call
// fails), gated (batches, exports and restores wait until released) or
// rolled back to its initial image and epoch.
type fault struct {
	*Node
	ids  []uint64
	data []byte

	mu      sync.Mutex
	killed  bool
	gate    chan struct{}
	exports int
}

func newFault() *fault {
	return &fault{Node: NewNode(suboram.New(suboram.Config{BlockSize: testBlock}))}
}

func (f *fault) Init(ids []uint64, data []byte) error {
	f.ids, f.data = append([]uint64(nil), ids...), append([]byte(nil), data...)
	return f.Node.Init(ids, data)
}

func (f *fault) enter() error {
	f.mu.Lock()
	gate := f.gate
	f.mu.Unlock()
	if gate != nil {
		<-gate
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return errDown
	}
	return nil
}

func (f *fault) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	if err := f.enter(); err != nil {
		return nil, err
	}
	return f.Node.BatchAccess(reqs)
}

func (f *fault) Restore(ids []uint64, data []byte, epoch uint64) error {
	if err := f.enter(); err != nil {
		return err
	}
	return f.Node.Restore(ids, data, epoch)
}

func (f *fault) Export() ([]uint64, []byte, uint64, error) {
	f.mu.Lock()
	f.exports++
	f.mu.Unlock()
	if err := f.enter(); err != nil {
		return nil, nil, 0, err
	}
	return f.Node.Export()
}

func (f *fault) setKilled(k bool) {
	f.mu.Lock()
	f.killed = k
	f.mu.Unlock()
}

func (f *fault) stall(t *testing.T) {
	f.mu.Lock()
	f.gate = make(chan struct{})
	f.mu.Unlock()
	t.Cleanup(f.release)
}

func (f *fault) release() {
	f.mu.Lock()
	if f.gate != nil {
		close(f.gate)
		f.gate = nil
	}
	f.mu.Unlock()
}

// rollback is the §9 attack: the host restarts the enclave from its old
// sealed image, so state and sealed epoch revert together.
func (f *fault) rollback(t *testing.T) {
	t.Helper()
	if err := f.Node.Restore(f.ids, f.data, 0); err != nil {
		t.Fatal(err)
	}
}

func newGroup(t *testing.T, f, r int) (*Group, []*fault) {
	t.Helper()
	ms := make([]*fault, f+r+1)
	cs := make([]Client, len(ms))
	for i := range ms {
		ms[i] = newFault()
		cs[i] = ms[i]
	}
	g, err := NewGroup(cs, nil, f, r)
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
	return g, ms
}

// settle waits until every member has answered every batch issued, so a
// fault injected next lands at a batch boundary for all of them.
func settle(g *Group) {
	for i := range g.members {
		g.WaitIdle(i)
	}
}

func readKey(t *testing.T, g *Group, key uint64) ([]byte, bool) {
	t.Helper()
	out, err := g.BatchAccess(readReq(key))
	if err != nil {
		t.Fatal(err)
	}
	return out.Block(0), out.Aux[0] == 1
}

func readReq(key uint64) *store.Requests {
	reqs := store.NewRequests(1, testBlock)
	reqs.SetRow(0, store.OpRead, key, 0, 0, 0, nil)
	return reqs
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
	g, ms := newGroup(t, 2, 0)
	writeKey(t, g, 1, []byte("before"))
	settle(g)
	ms[0].setKilled(true)
	ms[2].setKilled(true)
	v, found := readKey(t, g, 1)
	if !found || !bytes.HasPrefix(v, []byte("before")) {
		t.Fatalf("read with 2 crashed replicas: %q %v", v, found)
	}
}

func TestGroupDetectsRollback(t *testing.T) {
	g, ms := newGroup(t, 0, 1)
	writeKey(t, g, 3, []byte("v1"))
	// Roll one replica back to its initial sealed image. Its reply epoch
	// lags the trusted counter, so it is excluded; the fresh replica serves
	// the correct value.
	ms[1].rollback(t)
	v, found := readKey(t, g, 3)
	if !found || !bytes.HasPrefix(v, []byte("v1")) {
		t.Fatalf("rolled-back replica leaked stale data: %q %v", v, found)
	}
}

func TestGroupAllStaleIsNoQuorum(t *testing.T) {
	g, ms := newGroup(t, 0, 0) // single replica, no tolerance
	writeKey(t, g, 1, []byte("x"))
	ms[0].rollback(t)
	if _, err := g.BatchAccess(readReq(1)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("expected ErrNoQuorum, got %v", err)
	}
}

// TestGroupAllCrashedIsNoQuorum: more than f members down fails the batch —
// the partition's failure, which core's epoch detector handles.
func TestGroupAllCrashedIsNoQuorum(t *testing.T) {
	g, ms := newGroup(t, 1, 0)
	for _, m := range ms {
		m.setKilled(true)
	}
	if _, err := g.BatchAccess(readReq(1)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("expected ErrNoQuorum, got %v", err)
	}
}

func TestGroupRecoveredStaleReplicaStaysExcluded(t *testing.T) {
	g, ms := newGroup(t, 1, 1)
	writeKey(t, g, 1, []byte("fresh"))
	settle(g)
	ms[0].setKilled(true)
	writeKey(t, g, 1, []byte("fresher")) // replica 0 misses this epoch
	settle(g)
	ms[0].setKilled(false)
	// Replica 0's epoch now lags; its replies are stale until restored.
	v, found := readKey(t, g, 1)
	if !found || !bytes.HasPrefix(v, []byte("fresher")) {
		t.Fatalf("stale recovered replica served: %q %v", v, found)
	}
}

// divergentClient wraps a member and corrupts every response.
type divergentClient struct{ *Node }

func (d divergentClient) BatchAccess(reqs *store.Requests) (*store.Requests, error) {
	out, err := d.Node.BatchAccess(reqs)
	if err != nil {
		return nil, err
	}
	if out.Len() > 0 {
		out.Block(0)[0] ^= 0xFF
	}
	return out, nil
}

// TestGroupDetectsDivergence: with f = 1 the quorum is one answer, so the
// corrupt member's reply may be the one served; the other member's fresh
// reply is still checked against it when it lands, and from then on every
// batch fails. With f = 0 the quorum holds both replies and the batch
// itself fails.
func TestGroupDetectsDivergence(t *testing.T) {
	for _, f := range []int{1, 0} {
		g, err := NewGroup([]Client{
			NewNode(suboram.New(suboram.Config{BlockSize: testBlock})),
			divergentClient{NewNode(suboram.New(suboram.Config{BlockSize: testBlock}))},
		}, nil, f, 1-f)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Init([]uint64{1}, make([]byte, testBlock)); err != nil {
			t.Fatal(err)
		}
		_, err = g.BatchAccess(readReq(1))
		if !errors.Is(err, ErrDivergence) && (f == 0 || err != nil) {
			t.Fatalf("f=%d: first batch: %v", f, err)
		}
		settle(g)
		if _, err := g.BatchAccess(readReq(1)); !errors.Is(err, ErrDivergence) {
			t.Fatalf("f=%d: expected ErrDivergence after both replies, got %v", f, err)
		}
	}
}

func TestGroupSizeValidation(t *testing.T) {
	if _, err := NewGroup([]Client{NewNode(nil)}, nil, 1, 1); err == nil {
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

// TestRollbackNeverServedBeforeResync is the §9 rejoin trace test: a
// rolled-back member is excluded (stale epoch) until a restore re-admits
// it, and only then serves clients again — with current state, not the
// stale image.
func TestRollbackNeverServedBeforeResync(t *testing.T) {
	// With the only current member down there is no donor, so the answer
	// is ErrNoQuorum — never the rolled-back member's stale state.
	g, ms := newGroup(t, 0, 1)
	writeKey(t, g, 3, []byte("v1"))
	ms[1].rollback(t)
	ms[0].setKilled(true)
	for i := 0; i < 2; i++ {
		if _, err := g.BatchAccess(readReq(3)); !errors.Is(err, ErrNoQuorum) {
			t.Fatalf("rolled-back replica served before restore: err=%v", err)
		}
	}

	g2, ms2 := newGroup(t, 1, 1)
	writeKey(t, g2, 3, []byte("v2"))
	settle(g2)
	ms2[2].rollback(t)
	// One batch: the rolled-back member replies with a stale epoch and is
	// discarded.
	v, found := readKey(t, g2, 3)
	if !found || !bytes.HasPrefix(v, []byte("v2")) {
		t.Fatalf("stale member leaked: %q %v", v, found)
	}
	settle(g2)
	if st := g2.Stats(); st.StaleReplies != 1 || st.Fresh != 2 || st.Resyncs != 0 {
		t.Fatalf("rolled-back member not caught by its reply: %+v", st)
	}
	// The next boundary restores it from a current member's export, ahead
	// of the batch in its own queue; then it alone serves the current value.
	readKey(t, g2, 3)
	settle(g2)
	if st := g2.Stats(); st.Resyncs != 1 || st.ResyncEpochs != 1 || st.ResyncBytes == 0 || st.Fresh != 3 {
		t.Fatalf("restore stats: %+v", st)
	}
	ms2[0].setKilled(true)
	ms2[1].setKilled(true)
	v, found = readKey(t, g2, 3)
	if !found || !bytes.HasPrefix(v, []byte("v2")) {
		t.Fatalf("restored member served wrong state: %q %v", v, found)
	}
}

// TestAutoHealResyncsLaggingReplica crashes a member for a few epochs; once
// it answers again its stale reply marks it, and the next boundary restores
// it from a current peer without any operator call.
func TestAutoHealResyncsLaggingReplica(t *testing.T) {
	g, ms := newGroup(t, 1, 0)
	ms[1].setKilled(true)
	writeKey(t, g, 1, []byte("a"))
	writeKey(t, g, 1, []byte("b"))
	settle(g)
	// A member whose last batch failed is down: no partition image is
	// exported for it until it answers again.
	if n := ms[0].exports + ms[1].exports; n != 0 {
		t.Fatalf("%d exports for a member that is down", n)
	}
	ms[1].setKilled(false)
	writeKey(t, g, 1, []byte("c"))
	settle(g) // it answers "c" (stale), so it is up again
	readKey(t, g, 1)
	settle(g)
	if st := g.Stats(); st.Resyncs != 1 || st.ResyncEpochs != 2 {
		t.Fatalf("lagging member not restored: %+v", st)
	}
	// The restored member alone serves the latest value.
	ms[0].setKilled(true)
	v, found := readKey(t, g, 1)
	if !found || !bytes.HasPrefix(v, []byte("c")) {
		t.Fatalf("restored member state: %q %v", v, found)
	}
}

// TestFinishedMemberReadsIdle: back-to-back batches on an f = 1 group with
// one member down always reach n − f answers from the live member.
func TestFinishedMemberReadsIdle(t *testing.T) {
	g, ms := newGroup(t, 1, 0)
	ms[1].setKilled(true)
	reqs := readReq(1)
	for i := 0; i < 1000; i++ {
		if _, err := g.BatchAccess(reqs); err != nil {
			t.Fatalf("batch %d: %v (%+v)", i, err, g.Stats())
		}
	}
}

// TestGatedMemberCatchesUpInOrder: a stalled member never holds a batch —
// the quorum answers without it — and once released it works through its
// backlog in counter order and is current again with no restore.
func TestGatedMemberCatchesUpInOrder(t *testing.T) {
	g, ms := newGroup(t, 1, 0)
	ms[1].stall(t)
	for i := byte(0); i < 5; i++ {
		writeKey(t, g, 1, []byte{'a' + i})
	}
	if st := g.Stats(); st.Fresh != 2 {
		t.Fatalf("a member that is only behind was marked stale: %+v", st)
	}
	ms[1].release()
	settle(g)
	if st := g.Stats(); st.Resyncs != 0 || st.StaleReplies != 0 || st.Fresh != 2 {
		t.Fatalf("caught-up member needed repair: %+v", st)
	}
	if got := ms[1].Epoch(); got != 5 {
		t.Fatalf("caught-up member at epoch %d, want 5", got)
	}
	ms[0].setKilled(true)
	v, found := readKey(t, g, 1)
	if !found || v[0] != 'e' {
		t.Fatalf("caught-up member state: %q %v", v, found)
	}
}

// TestOverflowedMemberRestored: a member stalled past backlogCap batches has
// its backlog dropped and turns stale; the restore queued at that boundary
// re-admits it once released.
func TestOverflowedMemberRestored(t *testing.T) {
	g, ms := newGroup(t, 1, 0)
	ms[1].stall(t)
	// Batch 1 is held in the call, 2…backlogCap+1 queue up, the next one
	// overflows.
	for i := 0; i < backlogCap+2; i++ {
		writeKey(t, g, 1, []byte{byte('A' + i)})
	}
	if st := g.Stats(); st.Fresh != 1 {
		t.Fatalf("overflowed member not stale: %+v", st)
	}
	ms[1].release()
	settle(g)
	if st := g.Stats(); st.Resyncs != 1 || st.ResyncEpochs != backlogCap || st.Fresh != 2 {
		t.Fatalf("overflowed member not restored: %+v", st)
	}
	ms[0].setKilled(true)
	v, found := readKey(t, g, 1)
	if !found || v[0] != byte('A'+backlogCap+1) {
		t.Fatalf("restored member state: %q %v", v, found)
	}
}

// TestBlockedDonorExport: the donor picked for a rolled-back member is idle
// but wedged, so its Export blocks. That holds up only the donor's queue and
// the restore waiting on it — one stalled and one rolled-back member, within
// f = r = 1 — and the group keeps answering; released, the export lands and
// the member is restored.
func TestBlockedDonorExport(t *testing.T) {
	g, ms := newGroup(t, 1, 1)
	writeKey(t, g, 1, []byte("a"))
	settle(g)
	ms[2].rollback(t)
	readKey(t, g, 1) // its stale reply marks member 2
	settle(g)
	ms[0].stall(t) // the first idle current member: the next donor
	for i := byte(0); i < 3; i++ {
		writeKey(t, g, 1, []byte{'b' + i})
	}
	if st := g.Stats(); st.Resyncs != 0 || st.Fresh != 2 {
		t.Fatalf("restore ran before the donor's export: %+v", st)
	}
	ms[0].release()
	settle(g)
	if st := g.Stats(); st.Resyncs != 1 || st.Fresh != 3 {
		t.Fatalf("member not restored once the export landed: %+v", st)
	}
	ms[0].setKilled(true)
	ms[1].setKilled(true)
	v, found := readKey(t, g, 1)
	if !found || v[0] != 'd' {
		t.Fatalf("restored member state: %q %v", v, found)
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
