// Package rng is the simulator's only sanctioned source of pseudo-randomness:
// a splitmix64 generator plus coordinate-hash seeding helpers. It is a leaf
// package (no imports at all) precisely so that every layer — workload
// content generators, baseline policies, the cell-type noise model — can
// draw from the same explicitly seeded stream without creating import
// cycles.
//
// The determinism invariant the zrlint `determinism` analyzer enforces is
// stated here: simulation packages must not call time.Now or the global
// math/rand functions, because the golden-stats tests require every run to
// be bit-identical given a seed. A SplitMix seeded from hashed coordinates
// regenerates identical values in any order, which is what makes the
// per-rank sharded execution deterministic.
package rng

// SplitMix is a splitmix64 PRNG: tiny, fast, and — unlike math/rand —
// trivially seedable from hashed coordinates so that any (page, line) pair
// regenerates identical content in any order.
type SplitMix struct{ state uint64 }

// NewSplitMix seeds a generator.
func NewSplitMix(seed uint64) *SplitMix { return &SplitMix{state: seed} }

// Uint64 returns the next pseudo-random value.
func (s *SplitMix) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). n must be positive.
func (s *SplitMix) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn needs positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (s *SplitMix) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// HashState is Hash part-way through its parts: the FNV-1a state after
// the parts folded so far. Callers that hash many coordinate tuples sharing
// a prefix fold the prefix once and continue from it;
// HashStart.Fold(a).Fold(b).Sum() == Hash(a, b).
type HashState uint64

// HashStart is the state before any part (the FNV-1a offset basis).
const HashStart HashState = 0xcbf29ce484222325

// fnvPrime is the 64-bit FNV prime.
const fnvPrime = 0x100000001b3

// foldByte is one FNV-1a step.
func (h HashState) foldByte(b byte) HashState { return (h ^ HashState(b)) * fnvPrime }

// Fold mixes one more part into the state, least significant byte first.
func (h HashState) Fold(p uint64) HashState {
	for i := 0; i < 8; i++ {
		h = h.foldByte(byte(p >> (8 * i)))
	}
	return h
}

// Sum finishes the hash with a splitmix finalizer: the first draw of a
// SplitMix seeded with the state.
func (h HashState) Sum() uint64 {
	s := SplitMix{state: uint64(h)}
	return s.Uint64()
}

// Hash mixes several coordinates into one 64-bit seed (Fowler–Noll–Vo over
// the words, then a splitmix finalizer).
func Hash(parts ...uint64) uint64 {
	h := HashStart
	for _, p := range parts {
		h = h.Fold(p)
	}
	return h.Sum()
}

// HashString folds a string into the coordinate space of Hash.
func HashString(s string) uint64 {
	h := HashStart
	for i := 0; i < len(s); i++ {
		h = h.foldByte(s[i])
	}
	return uint64(h)
}
