// Package obliv provides the data-oblivious building blocks that every
// enclave-resident Snoopy algorithm is assembled from (paper §4.2.1, §B.4):
//
//   - constant-time predicates and conditional copy/swap ("oblivious
//     compare-and-set", the paper's OCmpSet/OCmpSwap),
//   - bitonic sort (Batcher), serial and parallel, for arbitrary lengths,
//   - order-preserving oblivious compaction (Goodrich-style; the default
//     implementation is the ORCompact recursion, with a log-shift variant
//     kept as an ablation baseline),
//   - oblivious distribution, compaction's inverse: elements at the front
//     of an array are routed to destination slots they carry,
//   - the subORAM scan's bucket kernel: Buckets.Scan (key pass and
//     column-major block pass in one call), on the widest vector body CPUID
//     reports (AVX-512VL, AVX2) and in portable Go otherwise,
//   - the row kernels a collection's SwapRun is built from (SwapRunU8 …
//     SwapRunBlocks): one streaming pass per column of a run, AVX2 where
//     CPUID reports it.
//
// Obliviousness contract: every exported algorithm performs a sequence of
// element accesses (reads, conditional swaps) whose *positions* are a fixed
// function of public inputs only — Len() and, for compaction, nothing else.
// A network hands a collection one layer at a time as runs of pairs
// (i+t, j+t) of public length (Swapper.SwapRun); secret data (keys,
// payloads, mark bits, destinations) only ever flows into a run's swap
// conditions or into branch-free mask arithmetic, never into an index
// computation or a Go branch. The trace tests in this package and in
// internal/trace verify this empirically by recording access sequences.
package obliv
