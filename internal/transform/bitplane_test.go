package transform

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitPlaneSingleBitPositions(t *testing.T) {
	// Bit b of delta word j lands at transposed position b*7+j.
	for j := 0; j < deltaWords; j++ {
		for _, b := range []int{0, 1, 7, 31, 63} {
			var l Line
			l[1+j] = 1 << uint(b)
			out := BitPlaneTranspose(l)
			p := b*deltaWords + j
			var want Line
			want[1+p/64] = 1 << uint(p%64)
			if out != want {
				t.Fatalf("word %d bit %d: got %v, want %v", j, b, out, want)
			}
		}
	}
}

func TestBitPlanePreservesBase(t *testing.T) {
	l := Line{0xDEADBEEF, 1, 2, 3, 4, 5, 6, 7}
	if out := BitPlaneTranspose(l); out[0] != 0xDEADBEEF {
		t.Fatalf("base word modified: %#x", out[0])
	}
}

func TestBitPlaneConcentratesSmallDeltas(t *testing.T) {
	// All deltas fitting k bits occupy only the first ceil(7k/64)
	// transposed words; the remaining tail is exactly zero.
	cases := []struct {
		bits         int
		wantZeroTail int // zero words at the end of the 8-word line
	}{
		{8, 6},  // 56 bits  -> word 1 only
		{9, 6},  // 63 bits  -> word 1 only
		{10, 5}, // 70 bits  -> words 1-2
		{16, 5}, // 112 bits -> words 1-2
		{19, 4}, // 133 bits -> words 1-3
		{32, 3}, // 224 bits -> words 1-4
		{64, 0}, // 448 bits -> all words
	}
	for _, tc := range cases {
		var l Line
		l[0] = 0x1234 // base is non-zero but irrelevant to the tail
		for j := 0; j < deltaWords; j++ {
			if tc.bits == 64 {
				l[1+j] = ^uint64(0)
			} else {
				l[1+j] = 1<<uint(tc.bits) - 1
			}
		}
		out := BitPlaneTranspose(l)
		occupied := (tc.bits*deltaWords + 63) / 64
		zeroTail := deltaWords - occupied
		if zeroTail < 0 {
			zeroTail = 0
		}
		if zeroTail != tc.wantZeroTail {
			// The test table itself must agree with the formula.
			t.Fatalf("test table inconsistent for %d bits: formula %d, table %d",
				tc.bits, zeroTail, tc.wantZeroTail)
		}
		if got := out.ZeroTailWords(); got != tc.wantZeroTail {
			t.Errorf("%d-bit deltas: zero tail %d words, want %d", tc.bits, got, tc.wantZeroTail)
		}
	}
}

func TestQuickBitPlaneRoundTrip(t *testing.T) {
	f := func(l Line) bool { return BitPlaneInverse(BitPlaneTranspose(l)) == l }
	g := func(l Line) bool { return BitPlaneTranspose(BitPlaneInverse(l)) == l }
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBitPlanePreservesPopcount(t *testing.T) {
	popcount := func(l Line) int {
		n := 0
		for _, w := range l {
			for ; w != 0; w &= w - 1 {
				n++
			}
		}
		return n
	}
	f := func(l Line) bool { return popcount(BitPlaneTranspose(l)) == popcount(l) }
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEBDIPlusBitPlaneEndToEnd(t *testing.T) {
	// The combined stages on a value-local line leave only the base and
	// the head of the transposed region non-zero (Figure 9a).
	rng := rand.New(rand.NewSource(42))
	base := rng.Uint64()
	l := Line{base}
	for i := 1; i < 8; i++ {
		l[i] = base + uint64(rng.Intn(200)) - 100
	}
	enc := BitPlaneTranspose(EBDIEncode(l))
	if enc.ZeroTailWords() < 6 {
		t.Fatalf("value-local line should leave >=6 zero tail words, got %d (%v)",
			enc.ZeroTailWords(), enc)
	}
	dec := EBDIDecode(BitPlaneInverse(enc))
	if dec != l {
		t.Fatal("combined round trip failed")
	}
}

// referenceTranspose is the direct bit-by-bit definition; the transpose
// network must match it exactly.
func referenceTranspose(l Line) Line {
	out := Line{l[0]}
	for j := 0; j < deltaWords; j++ {
		w := l[j+1]
		for b := 0; w != 0; b++ {
			if w&1 != 0 {
				p := b*deltaWords + j
				out[1+p/64] |= 1 << uint(p%64)
			}
			w >>= 1
		}
	}
	return out
}

func TestQuickBitPlaneMatchesReference(t *testing.T) {
	f := func(l Line) bool { return BitPlaneTranspose(l) == referenceTranspose(l) }
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Dense and boundary patterns explicitly.
	for _, l := range []Line{
		{},
		{0, ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
		{0, 0, 0, 0, 0, 0, 0, 1 << 63},
		{0, 1 << 63, 0, 0, 0, 0, 0, 0},
	} {
		if BitPlaneTranspose(l) != referenceTranspose(l) {
			t.Fatalf("mismatch for %v", l)
		}
	}
}

// maskDeltas keeps the low width bits of each delta word of l (width 64
// keeps them all); the base word is left as is.
func maskDeltas(l Line, width uint) Line {
	mask := ^uint64(0)
	if width < 64 {
		mask = 1<<width - 1
	}
	for j := 1; j < len(l); j++ {
		l[j] &= mask
	}
	return l
}

// TestBitPlaneLaneWidths holds the transpose to its bit-by-bit definition,
// and the inverse to the transpose, at every delta width from 0 to 64 bits:
// the transpose runs a different set of byte lanes depending on how wide
// the widest delta is, and each lane count has its own code.
func TestBitPlaneLaneWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for width := uint(0); width <= 64; width++ {
		var lines []Line
		ones := Line{rng.Uint64() | 1}
		for j := 1; j < len(ones); j++ {
			ones[j] = ^uint64(0)
		}
		lines = append(lines, maskDeltas(ones, width))
		if width > 0 {
			for j := 1; j < len(ones); j++ {
				top := Line{rng.Uint64() | 1}
				top[j] = 1 << (width - 1)
				lines = append(lines, top)
			}
		}
		for i := 0; i < 300; i++ {
			l := Line{rng.Uint64() | 1}
			for j := 1; j < len(l); j++ {
				// Every third line zeroes about half its deltas.
				if i%3 != 0 || rng.Intn(2) == 0 {
					l[j] = rng.Uint64()
				}
			}
			lines = append(lines, maskDeltas(l, width))
		}
		for _, l := range lines {
			tr := BitPlaneTranspose(l)
			if want := referenceTranspose(l); tr != want {
				t.Fatalf("%d-bit deltas %v: transpose %v, reference %v", width, l, tr, want)
			}
			if got := BitPlaneInverse(tr); got != l {
				t.Fatalf("%d-bit deltas %v: inverse gave %v", width, l, got)
			}
		}
	}
}
