package rng

import (
	"math"
	"testing"
)

func TestSplitMixDeterministic(t *testing.T) {
	a, b := NewSplitMix(42), NewSplitMix(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %#x != %#x", i, av, bv)
		}
	}
	c := NewSplitMix(43)
	if a.Uint64() == c.Uint64() {
		t.Fatal("different seeds produced the same first draw")
	}
}

func TestSplitMixGoldenSequence(t *testing.T) {
	// Pin the splitmix64 output so a refactor can't silently change every
	// seeded workload in the repo. Reference values for seed 0 from the
	// original splitmix64 algorithm.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	s := NewSplitMix(0)
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("draw %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestHashGolden(t *testing.T) {
	// Pin Hash at arities 1-4: every generated content byte descends from
	// it, so a refactor of the fold or the finalizer must not move these.
	cases := []struct {
		parts []uint64
		want  uint64
	}{
		{[]uint64{1}, 0xc2be3627c2bfe353},
		{[]uint64{1, 2}, 0xce8df8ae64aabfb4},
		{[]uint64{1, 2, 3}, 0x08638879170c2de7},
		{[]uint64{1, 2, 3, 4}, 0x91f94bbf8582464b},
		{[]uint64{0xdeadbeefcafef00d}, 0xfe06a0e0c5d8d751},
		{[]uint64{0xffffffffffffffff, 0, 0x8000000000000001}, 0x8dbaac5f73b37b24},
		{[]uint64{1, HashString("mcf"), 17, 0xb0}, 0x3c6a48db038b95f0},
	}
	for _, c := range cases {
		if got := Hash(c.parts...); got != c.want {
			t.Errorf("Hash%v = %#x, want %#x", c.parts, got, c.want)
		}
	}
	if got := HashString("mcf"); got != 0x08163b1917731945 {
		t.Errorf("HashString(mcf) = %#x", got)
	}
}

func TestHashStateContinuesHash(t *testing.T) {
	// Folding a shared prefix once and continuing from it must give the
	// same value as hashing every part from the start.
	s := NewSplitMix(0x5eed)
	for i := 0; i < 1000; i++ {
		a, b, c, d := s.Uint64(), s.Uint64(), s.Uint64(), s.Uint64()
		prefix := HashStart.Fold(a).Fold(b)
		if got, want := prefix.Fold(c).Fold(d).Sum(), Hash(a, b, c, d); got != want {
			t.Fatalf("prefix continuation of (%#x,%#x,%#x,%#x) = %#x, Hash = %#x", a, b, c, d, got, want)
		}
		if got, want := prefix.Sum(), Hash(a, b); got != want {
			t.Fatalf("prefix sum of (%#x,%#x) = %#x, Hash = %#x", a, b, got, want)
		}
	}
	if HashStart.Sum() != Hash() {
		t.Fatal("empty state does not finalize like Hash()")
	}
}

func TestIntn(t *testing.T) {
	s := NewSplitMix(7)
	for i := 0; i < 10000; i++ {
		if v := s.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := NewSplitMix(99)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; mean < 0.49 || mean > 0.51 {
		t.Fatalf("mean %v far from 0.5; generator badly biased", mean)
	}
}

func TestHashOrderAndArity(t *testing.T) {
	if Hash(1, 2) == Hash(2, 1) {
		t.Fatal("Hash ignores coordinate order")
	}
	if Hash(1) == Hash(1, 0) {
		t.Fatal("Hash ignores arity")
	}
	if Hash(5, 6) != Hash(5, 6) {
		t.Fatal("Hash is not a pure function")
	}
}

func TestHashStringDistinct(t *testing.T) {
	if HashString("gemsFDTD") == HashString("mcf") {
		t.Fatal("distinct names collided")
	}
	if HashString("x") != HashString("x") {
		t.Fatal("HashString is not a pure function")
	}
}

// foldByteLoop is the eight-step FNV-1a fold Fold shortcuts: one step per
// byte of the part, least significant first.
func foldByteLoop(h HashState, p uint64) HashState {
	for i := 0; i < 8; i++ {
		h = h.foldByte(byte(p >> (8 * i)))
	}
	return h
}

// TestFoldMatchesByteLoop holds Fold bit-identical to the eight-step loop
// on 0, every byte value at every position, 2^k-1, MaxUint64 and random
// parts, from the offset basis and from a folded state.
func TestFoldMatchesByteLoop(t *testing.T) {
	parts := []uint64{0, math.MaxUint64}
	for pos := 0; pos < 8; pos++ {
		for b := 1; b < 256; b++ {
			parts = append(parts, uint64(b)<<(8*pos))
		}
	}
	for k := 1; k < 64; k++ {
		parts = append(parts, 1<<k-1)
	}
	s := NewSplitMix(9)
	for i := 0; i < 1000; i++ {
		parts = append(parts, s.Uint64()>>(s.Uint64()%64))
	}
	for _, h := range []HashState{HashStart, HashStart.Fold(0x1234), HashState(0)} {
		for _, p := range parts {
			if got, want := h.Fold(p), foldByteLoop(h, p); got != want {
				t.Fatalf("%#x.Fold(%#x) = %#x, byte loop %#x", uint64(h), p, uint64(got), uint64(want))
			}
		}
	}
}

// FuzzFoldMatchesByteLoop checks Fold against the eight-step loop on
// arbitrary states and parts.
func FuzzFoldMatchesByteLoop(f *testing.F) {
	f.Add(uint64(HashStart), uint64(0))
	f.Add(uint64(HashStart), uint64(0x00ff00))
	f.Add(uint64(0), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, h, p uint64) {
		if got, want := HashState(h).Fold(p), foldByteLoop(HashState(h), p); got != want {
			t.Fatalf("%#x.Fold(%#x) = %#x, byte loop %#x", h, p, uint64(got), uint64(want))
		}
	})
}
