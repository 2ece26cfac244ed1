package workload

import "zerorefresh/internal/transform"

// PageClass categorizes the dominant value structure of one 4 KB page.
// Real memory dumps are strongly page-homogeneous — an allocator arena
// holds pointers, a numeric array holds numbers of one width — which is
// exactly why rank-level rows (4 KB, page-sized) can become uniformly
// zero-tailed after transformation.
type PageClass uint8

const (
	// PageZero pages contain only zeros (untouched or cleansed pages,
	// zero-initialized BSS, sparse matrices' empty regions).
	PageZero PageClass = iota
	// PageInt8 pages hold arrays of small integers whose neighbours
	// differ by less than 2^7 (counters, indices, quantized samples).
	PageInt8
	// PageInt16 pages hold integers with deltas below 2^14.
	PageInt16
	// PageInt32 pages hold integers with deltas below 2^30.
	PageInt32
	// PagePointer pages hold heap pointers sharing their high 40+ bits
	// (linked structures within one arena).
	PagePointer
	// PageFloat pages hold float64 values of similar magnitude (shared
	// sign and exponent, random mantissas).
	PageFloat
	// PageRandom pages hold high-entropy data (compressed or encrypted
	// buffers, hashes).
	PageRandom
	// PageText pages hold ASCII text.
	PageText
	numPageClasses
)

// String implements fmt.Stringer.
func (c PageClass) String() string {
	switch c {
	case PageZero:
		return "zero"
	case PageInt8:
		return "int8-delta"
	case PageInt16:
		return "int16-delta"
	case PageInt32:
		return "int32-delta"
	case PagePointer:
		return "pointer"
	case PageFloat:
		return "float64"
	case PageRandom:
		return "random"
	case PageText:
		return "text"
	default:
		return "unknown"
	}
}

// SkippableClasses returns how many of the 8 word classes of a row filled
// with this content are guaranteed all-zero after the EBDI + bit-plane
// transformation, and hence refresh-skippable under the rotated mapping.
//
// Derivation: a delta of magnitude < 2^k sign-folds into k+1 bits, whose
// transposed positions span [0, (k+1)*7); they occupy the first
// ceil((k+1)*7/64) words of the 7-word tail. The base word class is never
// zero (except on all-zero pages).
func (c PageClass) SkippableClasses() int {
	switch c {
	case PageZero:
		return 8
	case PageInt8: // |delta| <= 100 < 2^7 -> 8 folded bits -> 1 tail word
		return 6
	case PageInt16: // < 2^14 -> 15 bits -> 2 tail words
		return 5
	case PageInt32: // < 2^30 -> 31 bits -> 4 tail words
		return 3
	case PagePointer: // < 2^22 -> 23 bits -> 3 tail words
		return 4
	case PageFloat: // < 2^52 -> 53 bits -> 6 tail words
		return 1
	default: // PageRandom, PageText: full-width deltas
		return 0
	}
}

// ZeroByteFraction returns the approximate fraction of zero bytes in the
// *untransformed* content of this class; used to sanity-check the Figure 6
// calibration analytically.
func (c PageClass) ZeroByteFraction() float64 {
	switch c {
	case PageZero:
		return 1.0
	case PageInt8: // values < 2^15: six zero high bytes of eight
		return 0.75
	case PageInt16: // values < 2^20: five zero high bytes
		return 0.625
	case PageInt32: // values < 2^31: four zero high bytes
		return 0.5
	case PagePointer: // 0x00007f...: two zero high bytes
		return 0.25
	case PageRandom:
		return 1.0 / 256
	default: // PageFloat, PageText
		return 0
	}
}

// Line generates one 64-byte cacheline of this class. rng must be seeded
// per (benchmark, page, slot) so content is reproducible in any order.
func (c PageClass) Line(rng *SplitMix) transform.Line {
	var l transform.Line
	switch c {
	case PageZero:
		// all zeros

	case PageInt8:
		base := uint64(1000 + rng.Intn(1<<14)) // small values: zero high bytes
		for i := range l {
			l[i] = base + uint64(rng.Intn(201)) - 100
		}

	case PageInt16:
		base := uint64(1<<16 + rng.Intn(1<<19))
		for i := range l {
			l[i] = base + uint64(rng.Intn(1<<15)) - 1<<14
		}

	case PageInt32:
		base := uint64(1<<28 + rng.Intn(1<<30))
		for i := range l {
			l[i] = base + uint64(rng.Intn(1<<30)) - 1<<29
		}

	case PagePointer:
		arena := uint64(0x00007f0000000000) | uint64(rng.Intn(1<<20))<<20
		for i := range l {
			l[i] = arena + uint64(rng.Intn(1<<21))<<1 // within +/-2^22, even
		}

	case PageFloat:
		// Shared magnitude (sign+exponent), random mantissas: the
		// int64 difference between any two such doubles is below 2^52.
		exp := uint64(1023+rng.Intn(16)-8) << 52
		for i := range l {
			l[i] = exp | rng.Uint64()&((1<<52)-1)
		}

	case PageRandom:
		for i := range l {
			l[i] = rng.Uint64()
		}

	case PageText:
		var b [64]byte
		for i := range b {
			b[i] = byte(0x20 + rng.Intn(95))
		}
		l = transform.LineFromBytes(&b)
	}
	return l
}
