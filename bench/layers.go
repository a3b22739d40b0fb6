package main

// Every internal/... import of the benchmark lives in this file, and only
// the calls listed in bench/README.md are used, so a refactor of the
// layers has one file to read. The end-to-end run touches none of it
// except platformFromKey.

import (
	"math/rand"
	"sync"
	"time"

	"snoopy"
	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/enclave"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/obliv"
	"snoopy/internal/ohash"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/wirecode"
)

// platformFromKey builds the attestation authority the snoopy-server
// children share (their -platform flag); the root package does not
// re-export this constructor.
func platformFromKey(key [32]byte) *snoopy.Platform {
	return enclave.NewPlatformFromKey(crypt.Key(key))
}

// alphaFor is the padded batch size f(R,S) the load balancer will use.
func alphaFor(r, s int) int { return max(1, batch.Size(r, s, 128)) }

// frameBytes is the wire size of one α-row batch.
func frameBytes(alpha int) int { return wirecode.FrameLen(alpha, blockSize) }

// timedSub times every call the engine makes into one partition, from
// outside: a local subORAM's BatchAccess, or a dialed partition's round
// trip. It does not forward the delivery-tag hooks of dialed clients; those
// matter only when a standby replays a journal, which no run here does.
type timedSub struct {
	inner snoopy.SubORAM
	name  string
	tr    *tracer

	mu    sync.Mutex
	durMs []float64
}

type batchedSub interface {
	BatchAccessN(reqs []*store.Requests) ([]*store.Requests, error)
}

// timedSubN adds the grouped call, for inner clients that have it (the
// engine picks its dispatch path by this method's presence).
type timedSubN struct {
	*timedSub
	innerN batchedSub
}

func newTimedSub(inner snoopy.SubORAM, tr *tracer) *timedSub {
	name := "suboram.batch_access"
	if _, local := inner.(*suboram.SubORAM); !local {
		name = "transport.rtt"
	}
	return &timedSub{inner: inner, name: name, tr: tr}
}

func (t *timedSub) client() snoopy.SubORAM {
	if n, ok := t.inner.(batchedSub); ok {
		return &timedSubN{timedSub: t, innerN: n}
	}
	return t
}

func (t *timedSub) Init(ids []uint64, data []byte) error { return t.inner.Init(ids, data) }

func (t *timedSub) timed(call func()) {
	parent, epoch := t.tr.flush.Load(), t.tr.epoch.Load()
	if parent == 0 {
		// The engine's own ticker flushed: no bench-side epoch to belong
		// to, so the partition's call count stands in for the epoch id.
		t.mu.Lock()
		epoch = int64(len(t.durMs))
		t.mu.Unlock()
	}
	id := t.tr.begin(t.name, parent, epoch)
	t0 := time.Now()
	call()
	d := time.Since(t0)
	t.tr.end(id)
	t.mu.Lock()
	t.durMs = append(t.durMs, ms(d))
	t.mu.Unlock()
}

func (t *timedSub) BatchAccess(reqs *store.Requests) (out *store.Requests, err error) {
	t.timed(func() { out, err = t.inner.BatchAccess(reqs) })
	return out, err
}

func (t *timedSubN) BatchAccessN(reqs []*store.Requests) (out []*store.Requests, err error) {
	t.timed(func() { out, err = t.innerN.BatchAccessN(reqs) })
	return out, err
}

// take returns and clears the recorded call durations.
func (t *timedSub) take() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := t.durMs
	t.durMs = nil
	return d
}

// anatomy is what the replay measured: each layer's public entry point
// called directly, one after the other, at the workload's shape.
type anatomy struct {
	alpha, rows                               int
	makeBatchesMs, matchMs, buildMs, accessMs []float64
	sortNsPerRow, compactNsPerRow             float64
	encodeMs, decodeMs, sealMBps, openMBps    float64
	frameBytes                                int
}

// replayAnatomy runs the epoch by hand for about budget: MakeBatches, then
// per partition the hash-table build and BatchAccess, then MatchResponses, with a
// span around each; then the obliv, wirecode and crypt kernels at the same
// sizes. Partition p holds objects [p·N/S, (p+1)·N/S) whatever the router
// says: every step is oblivious, so its cost does not depend on hits.
func replayAnatomy(tr *tracer, sp spec, ops []op, seed int64, budget time.Duration) (anatomy, error) {
	rng := rand.New(rand.NewSource(seed))
	var key crypt.Key
	rng.Read(key[:])
	R, S := sp.perEpoch, sp.subORAMs
	a := anatomy{alpha: alphaFor(R, S)}
	a.rows = R + a.alpha*S
	a.frameBytes = frameBytes(a.alpha)

	lb := loadbalancer.New(loadbalancer.Config{BlockSize: blockSize, NumSubORAMs: S}, key)
	subs := make([]*suboram.SubORAM, S)
	per := sp.objects / S
	for p := range subs {
		ids, data := initialData(per)
		for i := range ids {
			ids[i] += uint64(p * per)
		}
		subs[p] = suboram.New(suboram.Config{BlockSize: blockSize})
		if err := subs[p].Init(ids, data); err != nil {
			return a, err
		}
	}
	reqs := store.NewRequests(R, blockSize)
	for i := 0; i < R; i++ {
		o := ops[i%len(ops)]
		reqs.Key[i], reqs.Seq[i], reqs.Client[i] = o.key, uint64(i), uint64(i)
		if o.write {
			reqs.Op[i] = store.OpWrite
			fillValue(reqs.Block(i), o.key, uint64(i)+1)
		}
	}
	step := func(name string, parent int32, epoch int64, dst *[]float64, f func() error) error {
		id := tr.begin(name, parent, epoch)
		t0 := time.Now()
		err := f()
		*dst = append(*dst, ms(time.Since(t0)))
		tr.end(id)
		return err
	}
	// The subORAM's own way to build: scratch reused from batch to batch.
	builder := ohash.NewBuilder(ohash.DefaultParams())
	var batchCopy *store.Requests
	start := time.Now()
	for e := int64(0); e < 3 || time.Since(start) < budget; e++ {
		eid := tr.begin("replay.epoch", 0, e)
		var b *loadbalancer.Batches
		err := step("loadbalancer.make_batches", eid, e, &a.makeBatchesMs, func() (err error) {
			b, err = lb.MakeBatches(reqs)
			return err
		})
		if err != nil {
			return a, err
		}
		responses := store.NewRequests(b.PerSub*S, blockSize)
		for p, sub := range subs {
			in := b.For(p)
			if err := step("ohash.build", eid, e, &a.buildMs, func() error {
				_, err := builder.Build(in)
				return err
			}); err != nil {
				return a, err
			}
			var out *store.Requests
			if err := step("suboram.batch_access", eid, e, &a.accessMs, func() (err error) {
				out, err = sub.BatchAccess(in)
				return err
			}); err != nil {
				return a, err
			}
			responses.CopyRowsPlain(p*b.PerSub, out)
		}
		if batchCopy == nil {
			batchCopy = b.For(0).Clone()
		}
		if err := step("loadbalancer.match_responses", eid, e, &a.matchMs, func() error {
			_, err := lb.MatchResponses(responses, reqs)
			return err
		}); err != nil {
			return a, err
		}
		b.Release()
		tr.end(eid)
	}

	// Kernels: the median of five repetitions each, in ns.
	kernel := func(name string, f func()) float64 {
		var d []float64
		for i := 0; i < 5; i++ {
			id := tr.begin(name, 0, int64(i))
			t0 := time.Now()
			f()
			d = append(d, float64(time.Since(t0)))
			tr.end(id)
		}
		return median(d)
	}
	x := store.NewRequests(a.rows, blockSize)
	marks := make([]uint8, a.rows)
	shuffle := func() {
		for i := range x.Key {
			x.Key[i], x.Sub[i], x.Seq[i] = rng.Uint64()>>1, uint32(rng.Intn(S)), uint64(i)
			marks[i] = uint8(rng.Intn(2))
		}
	}
	shuffle()
	a.sortNsPerRow = kernel("obliv.sort", func() { obliv.Sort(store.BySubKeyWriteSeq{Requests: x}) }) / float64(a.rows)
	shuffle()
	a.compactNsPerRow = kernel("obliv.compact", func() { obliv.Compact(x, marks) }) / float64(a.rows)

	frame := make([]byte, 0, a.frameBytes)
	a.encodeMs = kernel("wirecode.encode", func() { frame = wirecode.AppendRequests(frame[:0], batchCopy) }) / 1e6
	var decErr error
	a.decodeMs = kernel("wirecode.decode", func() { _, decErr = wirecode.DecodeRequests(frame, nil) }) / 1e6
	if decErr != nil {
		return a, decErr
	}
	sealer, err := crypt.NewSealer(key, 1)
	if err != nil {
		return a, err
	}
	sealed := make([]byte, 0, len(frame)+64)
	mb := float64(len(frame)) / (1 << 20)
	a.sealMBps = mb / (kernel("crypt.seal", func() { sealed = sealer.SealAppend(sealed[:0], frame, nil) }) / 1e9)
	opened := make([]byte, 0, len(frame))
	var openErr error
	a.openMBps = mb / (kernel("crypt.open", func() { opened, openErr = sealer.OpenAppend(opened[:0], sealed, nil) }) / 1e9)
	return a, openErr
}
