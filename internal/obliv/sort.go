package obliv

import (
	"runtime"
	"sync"
)

// Swapper is a collection an oblivious network exchanges a run at a time.
// Every layer of every network in this package is a run of pairs
// (i+t, j+t), t < n, at public positions; SwapRun exchanges elements i+t
// and j+t iff c[t] == 1, for every t < len(c), touching all of them whatever
// the conditions. The two halves of a run never overlap (i+len(c) <= j), and
// SwapRun must not write c.
type Swapper interface {
	Len() int
	SwapRun(c []uint8, i, j int)
}

// Sorter extends Swapper with a branch-free ordering predicate: GreaterRun
// sets g[t] = 1 iff element i+t must be placed strictly after element j+t,
// else 0, for every t < len(g).
type Sorter interface {
	Swapper
	GreaterRun(g []uint8, i, j int)
}

// runLen is the longest run a network hands a collection in one call; a
// longer layer goes in chunks of this public length, so the conditions of
// one call stay in L1 beside the rows they steer.
const runLen = 256

// runBuf is a network's condition scratch. It comes from a pool rather than
// the stack: a slice passed to an interface method escapes, so a local array
// would cost an allocation per network call.
type runBuf struct {
	c   [runLen]uint8
	tgt [2 * runLen]uint64 // Distribute's targets: both halves of a run
}

var runBufs = sync.Pool{New: func() any { return new(runBuf) }}

func getRunBuf() *runBuf { return runBufs.Get().(*runBuf) }

func (b *runBuf) release() { runBufs.Put(b) }

// Sort obliviously sorts s in ascending order using Batcher's bitonic
// network, generalized to arbitrary lengths (H.W. Lang's variant). The
// sequence of (i, j) compare-exchange positions depends only on s.Len();
// it performs O(n log² n) compare-exchanges. Sorting is not stable; callers
// that need stability must fold a tiebreaker into GreaterRun.
func Sort(s Sorter) {
	b := getRunBuf()
	bitonicSort(s, b, 0, s.Len(), true)
	b.release()
}

// bitonicSort sorts s[lo:lo+n] ascending if up, descending otherwise.
func bitonicSort(s Sorter, b *runBuf, lo, n int, up bool) {
	if n <= 1 {
		return
	}
	m := n / 2
	bitonicSort(s, b, lo, m, !up)
	bitonicSort(s, b, lo+m, n-m, up)
	bitonicMerge(s, b, lo, n, up)
}

// bitonicMerge merges the bitonic sequence s[lo:lo+n] into ascending
// (up) or descending order.
func bitonicMerge(s Sorter, b *runBuf, lo, n int, up bool) {
	if n <= 1 {
		return
	}
	m := greatestPowerOfTwoLessThan(n)
	compareExchange(s, b, lo, lo+m, n-m, up)
	bitonicMerge(s, b, lo, m, up)
	bitonicMerge(s, b, lo+m, n-m, up)
}

// compareExchange runs the n compare-exchanges (i+t, j+t) of one layer.
func compareExchange(s Sorter, b *runBuf, i, j, n int, up bool) {
	for n > 0 {
		k := min(n, runLen)
		c := b.c[:k]
		s.GreaterRun(c, i, j) // 1 where element i+t belongs after j+t
		if !up {
			// Ascending swaps where i+t is greater, descending where it is
			// not. The branch depends only on the public direction.
			for t := range c {
				c[t] ^= 1
			}
		}
		s.SwapRun(c, i, j)
		i, j, n = i+k, j+k, n-k
	}
}

func greatestPowerOfTwoLessThan(n int) int {
	k := 1
	for k < n {
		k <<= 1
	}
	return k >> 1
}

// SortParallel sorts like Sort but fans compare-exchange work out across up
// to `workers` goroutines. The network — and therefore the access pattern —
// is identical to Sort's; only the interleaving of independent
// compare-exchanges differs. workers <= 1 falls back to the serial sort.
func SortParallel(s Sorter, workers int) {
	if workers <= 1 || s.Len() < 2 {
		Sort(s)
		return
	}
	p := parSorter{s: s, sem: make(chan struct{}, workers-1)}
	b := getRunBuf()
	p.sort(b, 0, s.Len(), true)
	b.release()
}

// parallelGrain is the subproblem size below which the parallel sorter stops
// spawning goroutines and recursing into the semaphore.
const parallelGrain = 1 << 9

type parSorter struct {
	s   Sorter
	sem chan struct{}
}

// tryGo runs f on a fresh goroutine, with a condition buffer of its own, if
// a worker slot is free, signalling wg; otherwise it runs f inline on b.
func (p *parSorter) tryGo(wg *sync.WaitGroup, b *runBuf, f func(*runBuf)) {
	select {
	case p.sem <- struct{}{}:
		wg.Add(1)
		go func() {
			own := getRunBuf()
			defer func() {
				own.release()
				<-p.sem
				wg.Done()
			}()
			f(own)
		}()
	default:
		f(b)
	}
}

func (p *parSorter) sort(b *runBuf, lo, n int, up bool) {
	if n <= 1 {
		return
	}
	if n < parallelGrain {
		bitonicSort(p.s, b, lo, n, up)
		return
	}
	m := n / 2
	var wg sync.WaitGroup
	p.tryGo(&wg, b, func(b *runBuf) { p.sort(b, lo, m, !up) })
	p.sort(b, lo+m, n-m, up)
	wg.Wait()
	p.merge(b, lo, n, up)
}

func (p *parSorter) merge(b *runBuf, lo, n int, up bool) {
	if n <= 1 {
		return
	}
	if n < parallelGrain {
		bitonicMerge(p.s, b, lo, n, up)
		return
	}
	m := greatestPowerOfTwoLessThan(n)
	// The n-m compare-exchanges at this level are independent; chunk them.
	span := n - m
	chunk := (span + cap(p.sem)) / (cap(p.sem) + 1)
	if chunk < parallelGrain/4 {
		chunk = parallelGrain / 4
	}
	var wg sync.WaitGroup
	for off := 0; off < span; off += chunk {
		i, k := lo+off, min(chunk, span-off)
		if off+k < span {
			p.tryGo(&wg, b, func(b *runBuf) { compareExchange(p.s, b, i, i+m, k, up) })
		} else {
			compareExchange(p.s, b, i, i+m, k, up)
		}
	}
	wg.Wait()
	var wg2 sync.WaitGroup
	p.tryGo(&wg2, b, func(b *runBuf) { p.merge(b, lo, m, up) })
	p.merge(b, lo+m, n-m, up)
	wg2.Wait()
}

// adaptiveThreshold is the element count above which SortAdaptive switches
// from the serial to the parallel sorter. Below it, goroutine coordination
// costs more than it saves (paper Fig. 13a: "for smaller data sizes, the
// coordination overhead actually makes it cheaper to use a single thread").
const adaptiveThreshold = 1 << 13

// SortAdaptive picks the serial sort for small inputs and the parallel sort
// (with up to workers goroutines, default GOMAXPROCS) for large ones.
func SortAdaptive(s Sorter, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if s.Len() < adaptiveThreshold || workers == 1 {
		Sort(s)
		return
	}
	SortParallel(s, workers)
}

// U64Slice is a Sorter over plain uint64 keys; useful for tests and as a
// reference implementation of the Sorter contract.
type U64Slice []uint64

func (u U64Slice) Len() int { return len(u) }

func (u U64Slice) SwapRun(c []uint8, i, j int) { SwapRunU64(c, u[i:], u[j:]) }

func (u U64Slice) GreaterRun(g []uint8, i, j int) {
	a, b := u[i:i+len(g)], u[j:j+len(g)]
	for t := range g {
		g[t] = GtU64(a[t], b[t])
	}
}
