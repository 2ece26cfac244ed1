package transform

// Bit-plane transposition stage, Section V-C (motivated by BPC).
//
// After EBDI each delta word has zero high-order bits but a non-zero
// low-order byte, so zeros are abundant *within* words but not *across* the
// line. The bit-plane stage transposes the 7x64 bit matrix of the delta
// words: bit b of delta word j (j = 0..6, counting from word 1 of the line)
// moves to transposed position p = b*7 + j within the 448-bit delta region.
// Bit-plane 0 (the LSBs of all deltas) lands at the head of the region,
// plane 63 at the tail, so if every delta fits in k bits, only the first
// ceil(7k/64) words of the region are non-zero and the rest are exactly
// zero. Combined with the base word this concentrates all non-zero content
// at the head of the line (Figure 12).
//
// The transpose touches no logic on the critical path in hardware — it is
// wire routing — and is a bijection, inverted by BitPlaneInverse.
//
// In software it is a network over whole words. Writing b = 8k + i (byte
// lane k, bit i within the byte), the target position is p = 56k + 7i + j:
// byte lane k of the seven delta words fills the 56-bit field at offset
// 56k, with bit i of word j's byte at 7i + j inside it. So
//
//  1. an 8x8 byte transpose of the seven delta words (plus a zero eighth)
//     gathers byte lane k of every word into lane word k (byte j = word j);
//  2. an 8x8 bit transpose of each lane word moves bit i of byte j to bit
//     j of byte i, leaving bit 7 of every byte zero (there is no word 7);
//  3. a 7-bit pack squeezes out those zero bits, and lane k is placed at
//     bit 56k of the region.
//
// A lane whose bytes are all zero transposes and packs to zero, and on
// value-local content EBDI leaves most lanes so: small-integer deltas fold
// into 9 to 16 bits (two lanes), pointer and 32-bit integer deltas into 23
// to 31 (three or four), float deltas into 53 (seven). The forward
// transpose therefore ORs the deltas and runs only the lanes the widest
// one reaches: none when every delta is zero, two below 2^16, four below
// 2^32, all eight otherwise. With the words' high halves zero, the byte
// transpose's first round (32-bit blocks) is one shift-or per pair of
// words, and below 2^16 so is its second; the lanes come out as the full
// network's.
//
// Every step is a permutation and steps 1 and 2 are involutions, so the
// inverse unpacks the lanes and runs the same two transposes in reverse
// order. The bit-by-bit definitions the network must match are the
// referenceTranspose / referenceInverse test oracles.

// deltaWords is the number of delta words after the base word.
const deltaWords = 7

// transposeBytes8 transposes the 8x8 byte matrix whose row r is word xr:
// byte c of word r swaps with byte r of word c, in three block-swap rounds
// of 32-, 16- and 8-bit blocks. The words travel in registers both ways.
func transposeBytes8(x0, x1, x2, x3, x4, x5, x6, x7 uint64) (uint64, uint64, uint64, uint64, uint64, uint64, uint64, uint64) {
	x0, x4 = swapBlocks(x0, x4, 32, 0x00000000ffffffff)
	x1, x5 = swapBlocks(x1, x5, 32, 0x00000000ffffffff)
	x2, x6 = swapBlocks(x2, x6, 32, 0x00000000ffffffff)
	x3, x7 = swapBlocks(x3, x7, 32, 0x00000000ffffffff)
	x0, x2 = swapBlocks(x0, x2, 16, 0x0000ffff0000ffff)
	x1, x3 = swapBlocks(x1, x3, 16, 0x0000ffff0000ffff)
	x4, x6 = swapBlocks(x4, x6, 16, 0x0000ffff0000ffff)
	x5, x7 = swapBlocks(x5, x7, 16, 0x0000ffff0000ffff)
	x0, x1 = swapBlocks(x0, x1, 8, 0x00ff00ff00ff00ff)
	x2, x3 = swapBlocks(x2, x3, 8, 0x00ff00ff00ff00ff)
	x4, x5 = swapBlocks(x4, x5, 8, 0x00ff00ff00ff00ff)
	x6, x7 = swapBlocks(x6, x7, 8, 0x00ff00ff00ff00ff)
	return x0, x1, x2, x3, x4, x5, x6, x7
}

// swapBlocks exchanges the high s-bit half of every 2s-bit block of a with
// the low half of the same block of b (mask selects the low halves).
func swapBlocks(a, b uint64, s uint, mask uint64) (uint64, uint64) {
	t := (a>>s ^ b) & mask
	return a ^ t<<s, b ^ t
}

// transposeBits8 is the 8x8 bit-matrix transpose of Hacker's Delight §7-3
// on one word viewed as eight byte rows: bit i of byte j swaps with bit j
// of byte i.
func transposeBits8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}

// pack7 squeezes the low seven bits of each byte of x into one contiguous
// 56-bit field: bit i of byte j lands at 7j + i.
func pack7(x uint64) uint64 {
	x = x&0x007f007f007f007f | x>>1&0x3f803f803f803f80
	x = x&0x00003fff00003fff | x>>2&0x0fffc0000fffc000
	return x&0x000000000fffffff | x>>4&0x00fffffff0000000
}

// unpack7 inverts pack7: the 56-bit field spreads back to the low seven
// bits of each byte, bit 7 of every byte cleared.
func unpack7(x uint64) uint64 {
	x = x&0x000000000fffffff | x<<4&0x0fffffff00000000
	x = x&0x00003fff00003fff | x<<2&0x3fff00003fff0000
	return x&0x007f007f007f007f | x<<1&0x7f007f007f007f00
}

// BitPlaneTranspose re-orders the bits of words 1..7; the base word is
// passed through untouched.
func BitPlaneTranspose(l Line) Line {
	bitPlaneTranspose(&l)
	return l
}

// bitPlaneTranspose is BitPlaneTranspose in place, the form the pipeline
// runs: it spares the encode path two 64-byte copies per line. It runs the
// lanes the widest delta occupies (see the file comment), and writes them
// out one by one so their independent bit transposes and packs overlap.
func bitPlaneTranspose(l *Line) {
	switch w := l[1] | l[2] | l[3] | l[4] | l[5] | l[6] | l[7]; {
	case w == 0:
		// Every delta is zero, and so is the region.
	case w < 1<<16:
		// Lanes 0 and 1: the first two rounds set the words' low 16
		// bits side by side in two words, the third splits those
		// into the lanes.
		x0, x1 := swapBlocks(l[1]|l[3]<<16|l[5]<<32|l[7]<<48, l[2]|l[4]<<16|l[6]<<32, 8, 0x00ff00ff00ff00ff)
		f0 := pack7(transposeBits8(x0))
		f1 := pack7(transposeBits8(x1))
		l[1] = f0 | f1<<56
		l[2] = f1 >> 8
		l[3], l[4], l[5], l[6], l[7] = 0, 0, 0, 0, 0
	case w < 1<<32:
		// Lanes 0 to 3: the first round pairs word j with word j+4 in
		// one word, the last two rounds run as in transposeBytes8.
		x0, x2 := swapBlocks(l[1]|l[5]<<32, l[3]|l[7]<<32, 16, 0x0000ffff0000ffff)
		x1, x3 := swapBlocks(l[2]|l[6]<<32, l[4], 16, 0x0000ffff0000ffff)
		x0, x1 = swapBlocks(x0, x1, 8, 0x00ff00ff00ff00ff)
		x2, x3 = swapBlocks(x2, x3, 8, 0x00ff00ff00ff00ff)
		f0 := pack7(transposeBits8(x0))
		f1 := pack7(transposeBits8(x1))
		f2 := pack7(transposeBits8(x2))
		f3 := pack7(transposeBits8(x3))
		l[1] = f0 | f1<<56
		l[2] = f1>>8 | f2<<48
		l[3] = f2>>16 | f3<<40
		l[4] = f3 >> 24
		l[5], l[6], l[7] = 0, 0, 0
	default:
		x0, x1, x2, x3, x4, x5, x6, x7 := transposeBytes8(l[1], l[2], l[3], l[4], l[5], l[6], l[7], 0)
		f0 := pack7(transposeBits8(x0))
		f1 := pack7(transposeBits8(x1))
		f2 := pack7(transposeBits8(x2))
		f3 := pack7(transposeBits8(x3))
		f4 := pack7(transposeBits8(x4))
		f5 := pack7(transposeBits8(x5))
		f6 := pack7(transposeBits8(x6))
		f7 := pack7(transposeBits8(x7))
		l[1] = f0 | f1<<56
		l[2] = f1>>8 | f2<<48
		l[3] = f2>>16 | f3<<40
		l[4] = f3>>24 | f4<<32
		l[5] = f4>>32 | f5<<24
		l[6] = f5>>40 | f6<<16
		l[7] = f6>>48 | f7<<8
	}
}

// BitPlaneInverse undoes BitPlaneTranspose: it cuts the region into its
// eight 56-bit lane fields and runs the forward network backwards.
func BitPlaneInverse(l Line) Line {
	const field = 1<<56 - 1
	f0 := transposeBits8(unpack7(l[1] & field))
	f1 := transposeBits8(unpack7((l[1]>>56 | l[2]<<8) & field))
	f2 := transposeBits8(unpack7((l[2]>>48 | l[3]<<16) & field))
	f3 := transposeBits8(unpack7((l[3]>>40 | l[4]<<24) & field))
	f4 := transposeBits8(unpack7((l[4]>>32 | l[5]<<32) & field))
	f5 := transposeBits8(unpack7((l[5]>>24 | l[6]<<40) & field))
	f6 := transposeBits8(unpack7((l[6]>>16 | l[7]<<48) & field))
	f7 := transposeBits8(unpack7(l[7] >> 8))
	d0, d1, d2, d3, d4, d5, d6, _ := transposeBytes8(f0, f1, f2, f3, f4, f5, f6, f7)
	return Line{l[0], d0, d1, d2, d3, d4, d5, d6}
}
