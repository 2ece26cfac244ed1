// Package workload provides the synthetic stand-ins for the paper's
// benchmark applications (17 SPEC CPU2006, 2 NPB, 4 TPC-H): per-benchmark
// memory-content generators whose value distributions are calibrated to the
// paper's published statistics (Figure 6: ~2.3% zero 1 KB blocks and ~43%
// zero bytes on average; Figure 14: per-benchmark refresh-reduction
// ordering), plus write-set and DRAM request generators. Everything is
// deterministic given a seed.
package workload

import "zerorefresh/internal/rng"

// SplitMix is the simulator-wide splitmix64 PRNG, re-exported from the leaf
// package internal/rng so that content generators keep their historical
// workload.SplitMix spelling while lower layers (which workload itself
// depends on, e.g. internal/transform) can share the identical generator
// without an import cycle.
type SplitMix = rng.SplitMix

// NewSplitMix seeds a generator.
func NewSplitMix(seed uint64) *SplitMix { return rng.NewSplitMix(seed) }

// Hash mixes several coordinates into one 64-bit seed (Fowler–Noll–Vo over
// the words, then a splitmix finalizer).
func Hash(parts ...uint64) uint64 { return rng.Hash(parts...) }

// HashString folds a string into the coordinate space of Hash.
func HashString(s string) uint64 { return rng.HashString(s) }
