// Package transform implements the CPU-side value transformation of
// ZERO-REFRESH (Section V of the paper): the EBDI (encoded base-delta)
// stage, the bit-plane transposition stage, and the data-rotation mapping of
// cacheline words onto DRAM chips, all aware of the true/anti-cell layout of
// the target rows. The pipeline is lossless: Decode(Encode(line)) == line
// for every 64-byte cacheline, while lines with high value locality encode
// into long runs of *discharged* bits that the charge-aware refresh engine
// can exploit.
package transform

import "encoding/binary"

// Line is one 64-byte cacheline viewed as eight 64-bit little-endian words,
// the fixed word size of the paper's experimental configuration.
type Line [8]uint64

// LineFromBytes builds a Line from a 64-byte buffer.
func LineFromBytes(b *[64]byte) Line {
	var l Line
	for i := range l {
		l[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return l
}

// Bytes serializes the line back to its 64-byte memory image.
func (l Line) Bytes() [64]byte {
	var b [64]byte
	for i, w := range l {
		binary.LittleEndian.PutUint64(b[i*8:], w)
	}
	return b
}

// IsZero reports whether every bit of the line is zero.
func (l Line) IsZero() bool {
	return l == Line{}
}

// Invert complements every bit of the line in place. Anti-cell rows store
// the complemented encoding so that logical content intended to be
// "refresh-free" lands on discharged cells (Section V-B, Figure 11c).
func (l *Line) Invert() {
	for i := range l {
		l[i] = ^l[i]
	}
}

// ZeroWords returns the number of words of the line that are entirely
// zero, in any position — the codec's win for the line, since zero words
// store as fully discharged chip-row words. It takes the line by pointer so
// the encode path counts the staged line without copying it.
func (l *Line) ZeroWords() int {
	n := 0
	for _, w := range l {
		if w == 0 {
			n++
		}
	}
	return n
}

// ZeroTailWords returns the number of trailing words of the line that are
// entirely zero. After the EBDI and bit-plane stages this is the number of
// word classes eligible to join fully discharged rows on true-cell rows.
func (l Line) ZeroTailWords() int {
	n := 0
	for i := len(l) - 1; i >= 0; i-- {
		if l[i] != 0 {
			break
		}
		n++
	}
	return n
}
