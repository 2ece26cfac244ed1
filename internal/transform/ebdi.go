package transform

// EBDI (Encoded Base-Delta-Immediate) stage, Section V-B.
//
// Unlike the BDI compression it derives from, EBDI keeps the cacheline size
// unchanged: the first word is the base, and each remaining word is replaced
// by the *encoded difference* from the base. The encoding replaces two's
// complement — whose negative values have all-one high bits — with a
// sign-folded representation in which both small positive and small negative
// deltas have all-zero high-order bits (Figure 11b): the magnitude occupies
// the high bits growing downward and the sign occupies the least significant
// bit. Anti-cell rows use the complemented encoding (Figure 11c), applied as
// a whole-line inversion by the pipeline.
//
// Concretely this is the zig-zag fold: a signed delta d maps to
//
//	encode(d) = (d << 1) ^ (d >> 63)   (arithmetic shift)
//
// so 0→0, -1→1, 1→2, -2→3, ... : |d| < 2^k implies encode(d) < 2^(k+1),
// giving 63-k zero high bits. The fold is a bijection on 64-bit values, so
// no extra sign storage is needed and arbitrary (even value-hostile) lines
// remain losslessly encodable.

// foldDelta encodes a signed 64-bit delta into its sign-folded form.
func foldDelta(d int64) uint64 {
	return uint64(d<<1) ^ uint64(d>>63)
}

// unfoldDelta inverts foldDelta.
func unfoldDelta(z uint64) int64 {
	return int64(z>>1) ^ -int64(z&1)
}

// EBDIEncode converts a cacheline into its base + encoded-delta form. Word 0
// is the base and is stored unmodified (its delta from itself is always
// zero, so it is omitted — Section V-B); words 1..7 hold the folded deltas.
func EBDIEncode(l Line) Line {
	ebdiEncode(&l)
	return l
}

// ebdiEncode is EBDIEncode in place, the form the pipeline runs: it spares
// the encode path two 64-byte copies per line, as bitPlaneTranspose does.
func ebdiEncode(l *Line) {
	base := l[0]
	for i := 1; i < len(l); i++ {
		// Wrap-around subtraction: the delta is the two's-complement
		// difference, exact for any pair of 64-bit words.
		l[i] = foldDelta(int64(l[i] - base))
	}
}

// EBDIDecode inverts EBDIEncode.
func EBDIDecode(l Line) Line {
	out := Line{l[0]}
	base := l[0]
	for i := 1; i < len(l); i++ {
		out[i] = base + uint64(unfoldDelta(l[i]))
	}
	return out
}
