package suboram_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"snoopy/internal/batch"
	"snoopy/internal/core"
	"snoopy/internal/crypt"
	"snoopy/internal/obliv"
	"snoopy/internal/ohash"
	"snoopy/internal/persist"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/trace"
)

// legacyGeometry is the one table shape the subORAM built before
// ohash.GeometryFor (ohash/reference_test.go holds the same reference).
func legacyGeometry(n, lambda int) ohash.Geometry {
	g := ohash.Geometry{N: n, B1: max((n+3)/4, 1), C2: max(64, (n+7)/8)}
	g.Z1, g.B2 = 8, g.C2
	g.Z2 = batch.Size(g.C2, g.B2, lambda)
	return g
}

// tableInShape places a batch into a table of shape g by hand, under the
// key the batch carries — plain Go, nothing oblivious about it: every
// tier-1 bucket keeps its Z1 first real keys in table order, the rest go to
// their tier-2 bucket, the dummies nowhere.
func tableInShape(t *testing.T, reqs *store.Requests, g ohash.Geometry) *ohash.Table {
	k := crypt.SipKey(reqs.KeyStamp(0))
	tbl := &ohash.Table{Geom: g, K: k,
		Tier1: store.NewRequests(g.B1*g.Z1, reqs.BlockSize), Tier2: store.NewRequests(g.B2*g.Z2, reqs.BlockSize)}
	for tier, rows := range []*store.Requests{tbl.Tier1, tbl.Tier2} {
		for i := range rows.Key {
			rows.Key[i] = store.DummyKeyBit | ohash.TableDummyBit | uint64(tier)<<40 | uint64(i)
		}
	}
	var order []int
	for i := range reqs.Key {
		if !store.IsDummyKey(reqs.Key[i]) {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		ha, hb := ohash.Hash(k, reqs.Key[order[a]]), ohash.Hash(k, reqs.Key[order[b]])
		return ha < hb || ha == hb && reqs.Key[order[a]] < reqs.Key[order[b]]
	})
	fill1, fill2 := make([]int, g.B1), make([]int, g.B2)
	spilled := 0
	for _, i := range order {
		b1, b2 := crypt.SipBuckets(k, reqs.Key[i], g.B1, g.B2)
		b := int(b1)
		rows, slot, bucket := tbl.Tier1, b*g.Z1+fill1[b], b
		if fill1[b]++; fill1[b] > g.Z1 {
			b2 := int(b2)
			rows, slot, bucket = tbl.Tier2, b2*g.Z2+fill2[b2], b2
			spilled++
			if fill2[b2]++; fill2[b2] > g.Z2 || spilled > g.C2 {
				t.Fatalf("batch overflows %+v", g)
			}
		}
		rows.CopyRowPlain(slot, reqs, i)
		rows.Sub[slot], rows.Tag[slot] = uint32(bucket), 1
	}
	return tbl
}

// legacyShaped is a subORAM that answers every batch of a delivery, in
// order, through a table of the legacy shape: the real scan, extraction,
// miss zeroing and key echo around a hand-placed table.
type legacyShaped struct {
	*suboram.SubORAM
	t *testing.T
}

func (l legacyShaped) Deliver(_ store.DeliveryTag, reqs []*store.Requests) ([]*store.Requests, error) {
	outs := make([]*store.Requests, len(reqs))
	for b, r := range reqs {
		tbl := tableInShape(l.t, r, legacyGeometry(r.Len(), 128))
		if err := l.ScanTable(tbl); err != nil {
			return nil, err
		}
		out := tbl.Extract()
		zero := make([]byte, r.BlockSize)
		for i := 0; i < out.Len(); i++ {
			obliv.CondCopyBytes(obliv.Not(out.Aux[i]), out.Block(i), zero)
		}
		out.StampKey(tbl.K)
		outs[b] = out
	}
	return outs, nil
}

// fileShapes lists a directory tree's files as "relative path: size".
func fileShapes(t *testing.T, root string) []string {
	var out []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		out = append(out, fmt.Sprintf("%s: %d", rel, info.Size()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSystemMatchesLegacyGeometry is the legacy-vs-new system differential:
// two deployments — journaled root, two load balancers, three durable
// partitions, one routing key and so the same table keys — differ only in the shape
// of the subORAMs' hash tables (GeometryFor's against the legacy (8, 4, 8)
// one), and are driven by the same reads and writes over epochs of varying
// size. Every reply (after MatchResponses), every partition's bytes, and
// the shape of everything on disk — each WAL, snapshot and journal file's
// name and size, and the (offset, length) sequence of every file operation;
// the bytes themselves are sealed under fresh nonces — must be identical.
func TestSystemMatchesLegacyGeometry(t *testing.T) {
	const (
		block   = 48
		parts   = 3
		objects = 900
	)
	type stack struct {
		sys  *core.System
		subs []*suboram.SubORAM
		root string
		recs []*trace.Recorder // one per partition: they run concurrently
		jrn  *trace.Recorder
	}
	// One sealed routing key for both deployments: the same objects land in
	// the same partitions.
	seed := t.TempDir()
	if _, err := persist.LoadOrCreateRoutingKey(seed); err != nil {
		t.Fatal(err)
	}
	build := func(legacy bool) *stack {
		st := &stack{root: t.TempDir(), jrn: trace.New()}
		journal := filepath.Join(st.root, "journal")
		if err := os.MkdirAll(journal, 0o700); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			b, err := os.ReadFile(filepath.Join(seed, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(journal, f.Name()), b, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		clients := make([]core.SubORAMClient, parts)
		for p := range clients {
			sub := suboram.New(suboram.Config{BlockSize: block})
			st.subs = append(st.subs, sub)
			st.recs = append(st.recs, trace.New())
			var inner persist.Partition = sub
			if legacy {
				inner = legacyShaped{SubORAM: sub, t: t}
			}
			dur, err := persist.NewDurable(filepath.Join(st.root, fmt.Sprintf("part-%d", p)),
				persist.Config{BlockSize: block, SnapshotEvery: 4, Rec: st.recs[p]},
				func(suboram.BlockStore) persist.Partition { return inner })
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { dur.Close() })
			clients[p] = dur
		}
		sys, err := core.NewWithSubORAMs(core.Config{
			BlockSize: block, NumLoadBalancers: 2, JournalDir: journal, JournalRec: st.jrn,
		}, clients)
		if err != nil {
			t.Fatal(err)
		}
		st.sys = sys
		ids := make([]uint64, objects)
		data := make([]byte, objects*block)
		for i := range ids {
			ids[i] = uint64(i * 5)
			copy(data[i*block:], fmt.Sprintf("object-%d", i))
		}
		if err := sys.Init(ids, data); err != nil {
			t.Fatal(err)
		}
		return st
	}
	fresh, legacy := build(false), build(true)

	type reply struct {
		value []byte
		found bool
		err   string
	}
	drive := func(st *stack) (replies []reply) {
		rng := rand.New(rand.NewSource(67)) // the same requests for both stacks
		for epoch, size := range []int{300, 40, 1, 520, 97, 300} {
			var wait []func() ([]byte, bool, error)
			for i := 0; i < size; i++ {
				key := uint64(rng.Intn(objects*5 + 50)) // stored, absent and repeated keys
				var w func() ([]byte, bool, error)
				var err error
				if rng.Intn(3) == 0 {
					w, err = st.sys.Submit(core.Request{Op: store.OpWrite, Key: key, Value: []byte(fmt.Sprintf("epoch-%d-write-%d", epoch, i))})
				} else {
					w, err = st.sys.Submit(core.Request{Op: store.OpRead, Key: key})
				}
				if err != nil {
					t.Fatal(err)
				}
				wait = append(wait, w)
			}
			st.sys.Flush()
			for _, w := range wait {
				v, found, err := w()
				replies = append(replies, reply{append([]byte(nil), v...), found, fmt.Sprint(err)})
			}
		}
		st.sys.Close()
		return replies
	}
	got, want := drive(fresh), drive(legacy)
	if len(got) != len(want) {
		t.Fatalf("%d replies, legacy %d", len(got), len(want))
	}
	hits := 0
	for i := range got {
		if !bytes.Equal(got[i].value, want[i].value) || got[i].found != want[i].found || got[i].err != want[i].err {
			t.Fatalf("reply %d: (%q, %v, %s), legacy (%q, %v, %s)", i,
				got[i].value, got[i].found, got[i].err, want[i].value, want[i].found, want[i].err)
		}
		if got[i].found {
			hits++
		}
	}
	if hits == 0 || hits == len(got) {
		t.Fatalf("%d of %d requests found their object — the comparison is vacuous", hits, len(got))
	}
	for p := range fresh.subs {
		ids, data, err := fresh.subs[p].Export()
		if err != nil {
			t.Fatal(err)
		}
		lids, ldata, err := legacy.subs[p].Export()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ids) != fmt.Sprint(lids) || !bytes.Equal(data, ldata) {
			t.Fatalf("partition %d differs from the legacy-geometry deployment's", p)
		}
	}
	if a, b := fileShapes(t, fresh.root), fileShapes(t, legacy.root); fmt.Sprint(a) != fmt.Sprint(b) || len(a) < 2*parts+2 {
		t.Fatalf("files on disk differ:\n%v\nlegacy:\n%v", a, b)
	}
	for p := range fresh.recs {
		if fresh.recs[p].Count() == 0 || !trace.Equal(fresh.recs[p], legacy.recs[p]) {
			t.Fatalf("partition %d file I/O differs: %d events, legacy %d", p, fresh.recs[p].Count(), legacy.recs[p].Count())
		}
	}
	if fresh.jrn.Count() == 0 || !trace.Equal(fresh.jrn, legacy.jrn) {
		t.Fatalf("journal file I/O differs: %d events, legacy %d", fresh.jrn.Count(), legacy.jrn.Count())
	}
}
