package transform

import (
	"math/rand"
	"testing"
)

// referenceInverse is the bit-by-bit definition of BitPlaneInverse, the
// differential-test oracle for the transpose network run backwards: it
// walks every set bit of the transposed region and places it back
// individually, which is obviously correct and obviously slow.
func referenceInverse(l Line) Line {
	out := Line{l[0]}
	for i := 0; i < deltaWords; i++ {
		w := l[i+1]
		if w == 0 {
			continue
		}
		for k := 0; w != 0; k++ {
			if w&1 != 0 {
				p := i*64 + k // transposed position
				b := p / deltaWords
				j := p % deltaWords
				out[1+j] |= 1 << uint(b)
			}
			w >>= 1
		}
	}
	return out
}

// TestBitPlaneInverseMatchesReference pits the network inverse against the
// bit-loop oracle on structured and random transposed lines.
// Inputs are valid transposed images (outputs of BitPlaneTranspose), which
// is the only domain the inverse is specified on.
func TestBitPlaneInverseMatchesReference(t *testing.T) {
	cases := []Line{
		{},
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
		{0, 1, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 1 << 63},
		{0xdead, 0x01, 0x80, 0xff00ff00ff00ff00, 0x0123456789abcdef, ^uint64(0), 1, 1 << 62},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20000; i++ {
		var l Line
		for j := range l {
			l[j] = rng.Uint64()
		}
		// Mix in sparse lines: the post-EBDI common case is a few live
		// low-order bits per delta word.
		if i%3 == 0 {
			for j := 1; j < len(l); j++ {
				l[j] &= 0xff >> (j % 4)
			}
		}
		cases = append(cases, l)
	}
	for _, l := range cases {
		tr := BitPlaneTranspose(l)
		got, want := BitPlaneInverse(tr), referenceInverse(tr)
		if got != want {
			t.Fatalf("inverse mismatch for transposed %v:\n  network %v\n  oracle  %v", tr, got, want)
		}
		if got != l {
			t.Fatalf("round trip failed for %v: got %v", l, got)
		}
	}
}

// FuzzBitPlaneInverseDifferential fuzzes the network inverse against the
// bit-loop oracle over arbitrary transposed images.
func FuzzBitPlaneInverseDifferential(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8))
	f.Add(^uint64(0), uint64(1), uint64(1)<<63, uint64(42), ^uint64(0)-1, uint64(7), uint64(0xdead), uint64(0xbeef))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i uint64) {
		tr := BitPlaneTranspose(lineFromWords(a, b, c, d, e, g, h, i))
		if got, want := BitPlaneInverse(tr), referenceInverse(tr); got != want {
			t.Fatalf("inverse mismatch for %v: network %v, oracle %v", tr, got, want)
		}
	})
}
