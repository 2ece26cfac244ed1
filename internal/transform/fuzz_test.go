package transform

import (
	"testing"

	"zerorefresh/internal/dram"
)

// Native fuzz targets for the transformation pipeline. Run with
// `go test -fuzz FuzzPipelineRoundTrip ./internal/transform`; in normal
// test runs they execute the seed corpus below.

func lineFromWords(a, b, c, d, e, f, g, h uint64) Line { return Line{a, b, c, d, e, f, g, h} }

func FuzzEBDIRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(^uint64(0), uint64(1), uint64(1)<<63, uint64(42), ^uint64(0)-1, uint64(7), uint64(0xdead), uint64(0xbeef))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i uint64) {
		l := lineFromWords(a, b, c, d, e, g, h, i)
		if EBDIDecode(EBDIEncode(l)) != l {
			t.Fatalf("EBDI round trip failed for %v", l)
		}
	})
}

func FuzzBitPlaneRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8))
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i uint64) {
		l := lineFromWords(a, b, c, d, e, g, h, i)
		if BitPlaneInverse(BitPlaneTranspose(l)) != l {
			t.Fatalf("bit-plane round trip failed for %v", l)
		}
	})
}

// FuzzBitPlaneMatchesReference pins the transpose network and its inverse
// to their bit-by-bit definitions. The round trip alone cannot catch a
// network that computes the wrong permutation, as long as it inverts it.
// The transpose's input keeps the low width%65 bits of each delta, since
// uniform words almost always reach the top lane and the transpose runs
// fewer lanes for narrower deltas; the seeds start one run at each class's
// delta width.
func FuzzBitPlaneMatchesReference(f *testing.F) {
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint64(0), uint8(64))
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8), uint8(64))
	f.Add(^uint64(0), uint64(1)<<63, uint64(0x80), uint64(0xff00ff00ff00ff00), uint64(0x0123456789abcdef), ^uint64(0), uint64(1), uint64(1)<<56, uint8(64))
	for _, width := range []uint8{0, 9, 16, 23, 31, 53, 64} {
		f.Add(uint64(0x9e3779b97f4a7c15), ^uint64(0), uint64(0x0123456789abcdef), uint64(1)<<63|1, uint64(0xfedcba9876543210), ^uint64(0)>>1, uint64(0x8000800080008000), uint64(0x5555aaaa5555aaaa), width)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i uint64, width uint8) {
		l := lineFromWords(a, b, c, d, e, g, h, i)
		m := maskDeltas(l, uint(width%65))
		if got, want := BitPlaneTranspose(m), referenceTranspose(m); got != want {
			t.Fatalf("transpose of %v: network %v, reference %v", m, got, want)
		}
		if got, want := BitPlaneInverse(l), referenceInverse(l); got != want {
			t.Fatalf("inverse of %v: network %v, reference %v", l, got, want)
		}
	})
}

func FuzzPipelineRoundTrip(f *testing.F) {
	// Seed every stage combination on both a true-cell row (0) and an
	// anti-cell row (64, the next cell group under CellGroupRows=64), so
	// the corpus exercises the cell-aware inversion on each codec variant
	// even without -fuzz.
	for opt := uint8(0); opt < 8; opt++ {
		f.Add(uint64(0), uint64(1), ^uint64(0), uint64(1)<<63, uint64(0x7f), uint64(0xff00), uint64(3), uint64(9), uint16(0), opt)
		f.Add(^uint64(0), uint64(0x100), uint64(7), uint64(1)<<17, uint64(0xfe), uint64(0xabcd), uint64(1), uint64(0), uint16(64), opt)
	}
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i uint64, row uint16, optBits uint8) {
		cfg := dram.DefaultConfig(8 << 20)
		cfg.CellGroupRows = 64
		opts := Options{EBDI: optBits&1 != 0, BitPlane: optBits&2 != 0, CellAware: optBits&4 != 0}
		p := NewPipeline(opts, ExactTypes{Cfg: cfg})
		r := int(row) % cfg.RowsPerBank
		l := lineFromWords(a, b, c, d, e, g, h, i)
		enc := p.Encode(l, r)
		if p.Decode(enc, r) != l {
			t.Fatalf("pipeline round trip failed: opts=%+v row=%d line=%v", opts, r, l)
		}
	})
}
