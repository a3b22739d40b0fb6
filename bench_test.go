// Benchmarks mapping to the paper's tables and figures (see DESIGN.md §4
// for the index) plus the ablations of DESIGN.md §5. The cmd/snoopy-bench
// harness regenerates the full figures; these testing.B entries benchmark
// the same code paths at fixed operating points so regressions show up in
// `go test -bench`.
package snoopy_test

import (
	"fmt"
	"testing"
	"time"

	"snoopy"
	"snoopy/internal/arena"
	"snoopy/internal/batch"
	"snoopy/internal/crypt"
	"snoopy/internal/loadbalancer"
	"snoopy/internal/obladi"
	"snoopy/internal/obliv"
	"snoopy/internal/oblix"
	"snoopy/internal/ohash"
	"snoopy/internal/pathoram"
	"snoopy/internal/plaintext"
	"snoopy/internal/planner"
	"snoopy/internal/ringoram"
	"snoopy/internal/store"
	"snoopy/internal/suboram"
	"snoopy/internal/wirecode"
)

const benchBlock = 160 // the paper's object size

// ---- Figures 3 & 4: batch-size math ----

func BenchmarkBatchSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = batch.Size(10_000, 20, 128)
	}
}

func BenchmarkCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = batch.Capacity(20, 128, 1000)
	}
}

// ---- Figure 13a: bitonic sort parallelism ----

func BenchmarkBitonicSort(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(b *testing.B) {
				reqs := store.NewRequests(n, benchBlock)
				for i := 0; i < n; i++ {
					reqs.Key[i] = uint64(i * 2654435761)
				}
				b.SetBytes(int64(n * benchBlock))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					obliv.SortParallel(store.BySubKeyTag{Requests: reqs}, workers)
				}
			})
		}
	}
}

// ---- Ablation 1: compaction algorithm choice ----
// BenchmarkCompaction lives in internal/obliv (ablation_test.go), beside the
// alternative it measures.

// ---- Ablation 2: two-tier vs single-tier hash table ----
// BenchmarkHashTableTiers and BenchmarkHashTableConstruction live in
// internal/ohash (ablation_test.go), beside the single-tier table they
// compare against.

// ---- Figure 12: component costs ----

func BenchmarkLoadBalancerMakeBatch(b *testing.B) {
	for _, r := range []int{1 << 8, 1 << 10, 1 << 12} {
		b.Run(fmt.Sprintf("R=%d/S=4", r), func(b *testing.B) {
			lb := loadbalancer.New(loadbalancer.Config{
				BlockSize: benchBlock, NumSubORAMs: 4, Lambda: 128,
			}, crypt.MustNewKey())
			reqs := store.NewRequests(r, benchBlock)
			for i := 0; i < r; i++ {
				reqs.SetRow(i, store.OpRead, uint64(i*13+1), 0, uint64(i), uint64(i), nil)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batches, err := lb.MakeBatches(reqs)
				if err != nil {
					b.Fatal(err)
				}
				batches.Release()
			}
		})
	}
}

func BenchmarkLoadBalancerMatchResponses(b *testing.B) {
	const r = 1 << 10
	lb := loadbalancer.New(loadbalancer.Config{
		BlockSize: benchBlock, NumSubORAMs: 4, Lambda: 128,
	}, crypt.MustNewKey())
	reqs := store.NewRequests(r, benchBlock)
	for i := 0; i < r; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i*13+1), 0, uint64(i), uint64(i), nil)
	}
	batches, err := lb.MakeBatches(reqs)
	if err != nil {
		b.Fatal(err)
	}
	// The batches stand in for their own responses: in the order sent,
	// echoing their keys.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matched, err := lb.MatchResponses(batches.All, reqs)
		if err != nil {
			b.Fatal(err)
		}
		arena.Default.PutRequests(matched)
	}
}

// BenchmarkWireCodec measures the fixed-layout batch codec against the gob
// path it replaced: encode into a reused buffer, decode into pooled storage.
func BenchmarkWireCodec(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 10, 1 << 12} {
		reqs := store.NewRequests(n, benchBlock)
		for i := 0; i < n; i++ {
			reqs.SetRow(i, store.OpRead, uint64(i*13+1), 0, uint64(i), uint64(i), nil)
		}
		b.Run(fmt.Sprintf("encode/n=%d", n), func(b *testing.B) {
			buf := make([]byte, 0, wirecode.FrameLen(n, benchBlock))
			b.SetBytes(int64(wirecode.FrameLen(n, benchBlock)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = wirecode.AppendRequests(buf[:0], reqs)
			}
		})
		b.Run(fmt.Sprintf("decode/n=%d", n), func(b *testing.B) {
			frame := wirecode.AppendRequests(nil, reqs)
			b.SetBytes(int64(len(frame)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := wirecode.DecodeRequests(frame, arena.Default)
				if err != nil {
					b.Fatal(err)
				}
				arena.Default.PutRequests(out)
			}
		})
	}
}

// BenchmarkSubORAMProcessBatch also covers Figure 13b (worker scaling).
func BenchmarkSubORAMProcessBatch(b *testing.B) {
	for _, objects := range []int{1 << 12, 1 << 15, 1 << 17} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("objects=%d/workers=%d", objects, workers), func(b *testing.B) {
				sub := suboram.New(suboram.Config{BlockSize: benchBlock, Workers: workers})
				ids := make([]uint64, objects)
				for i := range ids {
					ids[i] = uint64(i)
				}
				if err := sub.Init(ids, make([]byte, objects*benchBlock)); err != nil {
					b.Fatal(err)
				}
				const batchN = 512
				reqs := store.NewRequests(batchN, benchBlock)
				for i := 0; i < batchN; i++ {
					reqs.SetRow(i, store.OpRead, uint64((i*131)%objects), 0, uint64(i), uint64(i), nil)
				}
				ohash.Order(reqs, crypt.MustNewSipKey()) // the table order a load balancer hands on
				b.SetBytes(int64(objects * benchBlock))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sub.BatchAccess(reqs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// ---- Ablation 5: sealed (enclave-external) vs in-enclave storage (§7) ----

func BenchmarkSealedScan(b *testing.B) {
	const objects = 1 << 13
	for _, sealed := range []bool{false, true} {
		b.Run(fmt.Sprintf("sealed=%v", sealed), func(b *testing.B) {
			sub := suboram.New(suboram.Config{BlockSize: benchBlock, Sealed: sealed})
			ids := make([]uint64, objects)
			for i := range ids {
				ids[i] = uint64(i)
			}
			if err := sub.Init(ids, make([]byte, objects*benchBlock)); err != nil {
				b.Fatal(err)
			}
			reqs := store.NewRequests(256, benchBlock)
			for i := 0; i < 256; i++ {
				reqs.SetRow(i, store.OpRead, uint64(i*17%objects), 0, uint64(i), uint64(i), nil)
			}
			ohash.Order(reqs, crypt.MustNewSipKey())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sub.BatchAccess(reqs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablation 6: deduplication under skew (§4.1) ----

func BenchmarkSkewedBatch(b *testing.B) {
	const r = 1 << 12
	for _, skew := range []string{"uniform", "all-same-key"} {
		b.Run(skew, func(b *testing.B) {
			lb := loadbalancer.New(loadbalancer.Config{
				BlockSize: benchBlock, NumSubORAMs: 8, Lambda: 128,
			}, crypt.MustNewKey())
			reqs := store.NewRequests(r, benchBlock)
			for i := 0; i < r; i++ {
				key := uint64(42)
				if skew == "uniform" {
					key = uint64(i)
				}
				reqs.SetRow(i, store.OpRead, key, 0, uint64(i), uint64(i), nil)
			}
			b.ResetTimer()
			var dropped int
			for i := 0; i < b.N; i++ {
				out, err := lb.MakeBatches(reqs)
				if err != nil {
					b.Fatal(err)
				}
				dropped += out.Dropped
			}
			if dropped != 0 {
				b.Fatalf("skewed batch dropped %d requests", dropped)
			}
		})
	}
}

// ---- Figure 9a (small-scale end-to-end): full-system request cost per
// configuration. NOTE: all nodes time-multiplex this host's cores, so this
// measures correctness-path cost, not cluster scaling — the scaling figure
// is regenerated by `snoopy-bench -fig 9a`, which extends these component
// costs through the paper's pipeline equations. Offered load scales with
// the subORAM count so per-partition work stays comparable. ----

func BenchmarkSnoopyEndToEnd(b *testing.B) {
	const objects = 1 << 14
	for _, cfg := range []struct{ lbs, subs int }{{1, 1}, {1, 3}, {2, 6}} {
		b.Run(fmt.Sprintf("L=%d/S=%d", cfg.lbs, cfg.subs), func(b *testing.B) {
			st, err := snoopy.Open(snoopy.Config{
				BlockSize: benchBlock, LoadBalancers: cfg.lbs, SubORAMs: cfg.subs,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			ids := make([]uint64, objects)
			for i := range ids {
				ids[i] = uint64(i)
			}
			if err := st.LoadSlices(ids, make([]byte, objects*benchBlock)); err != nil {
				b.Fatal(err)
			}
			perEpoch := 256 * cfg.subs
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				waits := make([]func() ([]byte, bool, error), perEpoch)
				for j := 0; j < perEpoch; j++ {
					w, err := st.ReadAsync(uint64((i*perEpoch + j) % objects))
					if err != nil {
						b.Fatal(err)
					}
					waits[j] = w
				}
				st.Flush()
				for _, w := range waits {
					if _, _, err := w(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.N*perEpoch)/time.Since(start).Seconds(), "reqs/s")
		})
	}
}

// ---- Figure 9b: key transparency operation cost ----

func BenchmarkSnoopyKeyTransparency(b *testing.B) {
	const users = 1 << 12
	st, err := snoopy.Open(snoopy.Config{BlockSize: 32, SubORAMs: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	objects := map[uint64][]byte{}
	for i := uint64(0); i < 2*users; i++ {
		objects[i] = []byte{byte(i)}
	}
	if err := st.Load(objects); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One KT lookup: log2(users)+1 = 13 reads in one epoch.
		var waits []func() ([]byte, bool, error)
		for k := uint64(0); k < 13; k++ {
			w, err := st.ReadAsync((uint64(i)*13 + k) % (2 * users))
			if err != nil {
				b.Fatal(err)
			}
			waits = append(waits, w)
		}
		st.Flush()
		for _, w := range waits {
			if _, _, err := w(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Figure 10: Oblix as subORAM vs native subORAM ----

func BenchmarkOblixAsSubORAM(b *testing.B) {
	const objects = 1 << 12
	sub := oblix.NewSubORAM(benchBlock)
	ids := make([]uint64, objects)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if err := sub.Init(ids, make([]byte, objects*benchBlock)); err != nil {
		b.Fatal(err)
	}
	reqs := store.NewRequests(64, benchBlock)
	for i := 0; i < 64; i++ {
		reqs.SetRow(i, store.OpRead, uint64(i*31%objects), 0, uint64(i), uint64(i), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sub.BatchAccess(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Baselines (Fig. 9a / 11b reference points) ----

func BenchmarkPathORAMAccess(b *testing.B) {
	o, err := pathoram.New(1<<16, benchBlock)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Access(false, uint32(i%(1<<16)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRingORAMAccess(b *testing.B) {
	o, err := ringoram.New(1<<16, benchBlock, ringoram.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Access(false, uint32(i%(1<<16)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOblixAccess(b *testing.B) {
	d, err := oblix.New(1<<14, benchBlock)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Access(false, uint32(i%(1<<14)), nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkObladiBatch(b *testing.B) {
	const objects = 1 << 14
	ids := make([]uint64, objects)
	for i := range ids {
		ids[i] = uint64(i)
	}
	p, err := obladi.New(obladi.Config{BlockSize: benchBlock}, ids, make([]byte, objects*benchBlock))
	if err != nil {
		b.Fatal(err)
	}
	ops := make([]obladi.Op, obladi.DefaultBatchSize)
	for i := range ops {
		ops[i] = obladi.Op{Key: uint64((i * 37) % objects)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.ExecuteBatch(ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ops)), "reqs/batch")
}

func BenchmarkPlaintextStore(b *testing.B) {
	s := plaintext.New(15)
	ids := make([]uint64, 1<<16)
	for i := range ids {
		ids[i] = uint64(i)
	}
	s.Load(ids, make([]byte, len(ids)*benchBlock), benchBlock)
	b.RunParallel(func(pb *testing.PB) {
		i := uint64(0)
		for pb.Next() {
			i++
			s.Get(i % uint64(len(ids)))
		}
	})
}

// ---- Figure 14: planner ----

func BenchmarkPlannerOptimize(b *testing.B) {
	model := planner.AnalyticModel(8, 1, 10, benchBlock, 128, planner.Testbed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := planner.Optimize(planner.Requirements{
			Objects: 1_000_000, MinThroughput: 50_000, MaxLatency: time.Second,
		}, model, planner.DefaultPrices())
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Crypto substrate ----

func BenchmarkSipHash(b *testing.B) {
	k := crypt.MustNewSipKey()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = crypt.SipHash(k, uint64(i))
	}
}

func BenchmarkFusedAccess(b *testing.B) {
	obj := make([]byte, benchBlock)
	slot := make([]byte, benchBlock)
	b.SetBytes(2 * benchBlock)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obliv.FusedAccess(uint8(i&1), uint8((i>>1)&1)&uint8(1-i&1), obj, slot)
	}
}

// BenchmarkScanBucket times the subORAM linear scan — per object: its lane of
// an eight-lane SipHash step and its share of one obliv.Tiers.ScanRun call
// per 64-object stripe (key passes and block pass over both tiers, pairs of
// objects streaming a one-bucket tier 2 once) — at
// the four (α, objects per partition) shapes of BENCHMARK.json's workloads
// and one paper-like shape whose table outgrows L2. ns/object and ns/slot
// come from the scan's own stopwatch (Stats.Scan): table build and
// extraction are excluded. The sub-benchmark name ends in the kernel body
// that ran (obliv.Kernel()), so numbers from different bodies are never
// compared; run with `-tags purego` for the portable one.
func BenchmarkScanBucket(b *testing.B) {
	for _, shape := range []struct {
		name           string
		alpha, objects int
	}{
		{"scan_heavy", 128, 1 << 15},
		{"batch_heavy", 845, 1 << 9},
		{"remote_durable", 512, 1 << 13},
		{"open_mixed", 122, 1 << 11},
		{"paper_like", 1024, 1 << 20}, // off the ledger: a table larger than L2
	} {
		b.Run(fmt.Sprintf("%s/alpha=%d/objects=%d/%s", shape.name, shape.alpha, shape.objects, obliv.Kernel()), func(b *testing.B) {
			pool := arena.NewPool()
			sub := suboram.New(suboram.Config{BlockSize: benchBlock, Pool: pool})
			ids := make([]uint64, shape.objects)
			for i := range ids {
				ids[i] = uint64(i)
			}
			if err := sub.Init(ids, make([]byte, shape.objects*benchBlock)); err != nil {
				b.Fatal(err)
			}
			// Half the rows hit stored objects (alternating reads and
			// writes), the rest are load-balancer dummies, as in a padded batch.
			reqs := store.NewRequests(shape.alpha, benchBlock)
			for i := 0; i < shape.alpha; i++ {
				key := store.DummyKeyBit | uint64(i)
				if i%2 == 0 {
					key = uint64(i / 2 * 131 % shape.objects)
				}
				reqs.SetRow(i, uint8(i/2%2), key, 0, uint64(i), uint64(i), nil)
			}
			ohash.Order(reqs, crypt.MustNewSipKey())
			var scan time.Duration
			b.SetBytes(int64(shape.objects * benchBlock))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := sub.BatchAccess(reqs)
				if err != nil {
					b.Fatal(err)
				}
				scan += sub.LastStats().Scan
				pool.PutRequests(out)
			}
			perObject := float64(scan.Nanoseconds()) / float64(b.N) / float64(shape.objects)
			b.ReportMetric(perObject, "ns/object")
			b.ReportMetric(perObject/float64(sub.LastStats().SlotsPerLookup), "ns/slot")
		})
	}
}
