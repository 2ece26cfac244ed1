package transform

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zerorefresh/internal/proptest"
)

func TestFoldDeltaSmallValues(t *testing.T) {
	// Figure 11b: small deltas of either sign must have all-zero
	// high-order bits. The fold interleaves signs: 0,-1,1,-2,2,...
	cases := []struct {
		d    int64
		want uint64
	}{
		{0, 0}, {-1, 1}, {1, 2}, {-2, 3}, {2, 4}, {-3, 5}, {3, 6},
		{127, 254}, {-128, 255},
		{math.MaxInt64, math.MaxUint64 - 1}, {math.MinInt64, math.MaxUint64},
	}
	for _, tc := range cases {
		if got := foldDelta(tc.d); got != tc.want {
			t.Errorf("foldDelta(%d) = %d, want %d", tc.d, got, tc.want)
		}
		if back := unfoldDelta(tc.want); back != tc.d {
			t.Errorf("unfoldDelta(%d) = %d, want %d", tc.want, back, tc.d)
		}
	}
}

func TestFoldDeltaHighBitsZero(t *testing.T) {
	// |d| < 2^k implies fold(d) < 2^(k+1): 64-(k+1) zero high bits.
	for k := uint(0); k < 63; k++ {
		for _, d := range []int64{1<<k - 1, -(1 << k)} {
			if z := foldDelta(d); z >= 1<<(k+1) {
				t.Fatalf("foldDelta(%d) = %#x exceeds 2^%d", d, z, k+1)
			}
		}
	}
}

func TestQuickFoldRoundTrip(t *testing.T) {
	f := func(d int64) bool { return unfoldDelta(foldDelta(d)) == d }
	g := func(z uint64) bool { return foldDelta(unfoldDelta(z)) == z }
	if err := quick.Check(f, proptest.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(g, proptest.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

func TestEBDIZeroLine(t *testing.T) {
	if got := EBDIEncode(Line{}); !got.IsZero() {
		t.Fatalf("all-zero line must encode to all zeros, got %v", got)
	}
}

func TestEBDIUniformLine(t *testing.T) {
	// A line of identical words encodes to base + seven zero deltas.
	var l Line
	for i := range l {
		l[i] = 0xABCDEF0123456789
	}
	enc := EBDIEncode(l)
	if enc[0] != l[0] {
		t.Fatalf("base changed: %#x", enc[0])
	}
	for i := 1; i < 8; i++ {
		if enc[i] != 0 {
			t.Fatalf("delta %d = %#x, want 0", i, enc[i])
		}
	}
	if EBDIDecode(enc) != l {
		t.Fatal("round trip failed")
	}
}

func TestEBDISmallDeltasProduceZeroHighBytes(t *testing.T) {
	// An array of int64 counters around a large base: deltas within
	// +/-127 leave 7 zero high bytes in every delta word.
	base := uint64(0x7f001234_00000000)
	l := Line{base, base + 3, base - 100, base + 127, base - 128 + 1, base + 1, base - 1, base + 50}
	enc := EBDIEncode(l)
	for i := 1; i < 8; i++ {
		if enc[i] > 0xFF {
			t.Fatalf("delta %d = %#x does not fit one byte", i, enc[i])
		}
	}
}

func TestQuickEBDIRoundTrip(t *testing.T) {
	f := func(l Line) bool { return EBDIDecode(EBDIEncode(l)) == l }
	if err := quick.Check(f, proptest.Config(t, 2000)); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEBDIValueLocalityCreatesZeroTails(t *testing.T) {
	// Property: if all words are within 2^15 of the base, every encoded
	// delta fits 16 bits.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := rng.Uint64()
		l := Line{base}
		for i := 1; i < 8; i++ {
			l[i] = base + uint64(rng.Int63n(1<<15)) - uint64(rng.Int63n(1<<15))
		}
		enc := EBDIEncode(l)
		for i := 1; i < 8; i++ {
			if enc[i] >= 1<<16 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, proptest.Config(t, 500)); err != nil {
		t.Fatal(err)
	}
}
