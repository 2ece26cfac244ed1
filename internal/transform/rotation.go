package transform

import (
	"encoding/binary"

	"zerorefresh/internal/dram"
)

// Data-rotation stage, Section V-D.
//
// A 64-byte cacheline is distributed over the 8 chips of a rank, 8 bytes per
// chip. Two mapping decisions determine whether the transformed line's zero
// words can ever form fully discharged chip-rows:
//
//  1. *Byte gathering* (Figure 13): the conventional DDR burst sends byte k
//     of every 8-byte beat to chip k, scattering one byte of the base word
//     and one byte of every delta word into every chip — no chip-row can be
//     all-zero. ZERO-REFRESH rearranges byte positions so each chip receives
//     one whole 8-byte *word* of the transformed line.
//  2. *Rotation* (Figure 9b): word w of a line stored in rank-level row r is
//     assigned to chip (w + r) mod 8, so a given chip-row holds words
//     of a single "class" (base, delta-head, or zero-tail) from all the
//     lines of the row. Together with the staggered refresh counters
//     (Section IV-C) the rows refreshed by one step hold one class across
//     all chips, letting the zero-tail classes skip as complete rows.
//
// ChipMapping abstracts the choice so the ablation harness can compare all
// three schemes.
type ChipMapping interface {
	// Scatter distributes the 8 words of a line onto the 8 chips for a
	// line stored in rank-level row rowIdx; result[c] is chip c's word.
	Scatter(l Line, rowIdx int) [8]uint64
	// Gather inverts Scatter.
	Gather(words [8]uint64, rowIdx int) Line
	// Name identifies the mapping in reports.
	Name() string
}

// RotatedMapping is the ZERO-REFRESH mapping: whole words per chip, rotated
// by the row index.
type RotatedMapping struct{}

// Name implements ChipMapping.
func (RotatedMapping) Name() string { return "rotated" }

// ChipForWord returns the chip storing word w of a line in row rowIdx.
func (RotatedMapping) ChipForWord(w, rowIdx int) int {
	return (w + rowIdx) % dram.LineChips
}

// WordClassOf returns which word class (0 = base, 1 = first transposed
// word, ..., 7 = last) chip-row (chip, rowIdx) holds under rotation.
func (RotatedMapping) WordClassOf(chip, rowIdx int) int {
	return ((chip-rowIdx)%dram.LineChips + dram.LineChips) % dram.LineChips
}

// Scatter implements ChipMapping.
func (m RotatedMapping) Scatter(l Line, rowIdx int) [8]uint64 {
	var out [8]uint64
	for w, v := range l {
		out[m.ChipForWord(w, rowIdx)] = v
	}
	return out
}

// Gather implements ChipMapping.
func (m RotatedMapping) Gather(words [8]uint64, rowIdx int) Line {
	var l Line
	for w := range l {
		l[w] = words[m.ChipForWord(w, rowIdx)]
	}
	return l
}

// DirectMapping stores whole words per chip without rotation (word w always
// on chip w). It isolates the benefit of the rotation step in ablations:
// the base word always lands on chip 0 whose rows can never skip under the
// rank-synchronous step-skip design.
type DirectMapping struct{}

// Name implements ChipMapping.
func (DirectMapping) Name() string { return "direct" }

// Scatter implements ChipMapping.
func (DirectMapping) Scatter(l Line, _ int) [8]uint64 { return [8]uint64(l) }

// Gather implements ChipMapping.
func (DirectMapping) Gather(words [8]uint64, _ int) Line { return Line(words) }

// ByteScatterMapping is the conventional DDRx burst mapping: in each of the
// eight burst beats, byte k goes to chip k, so chip c receives byte c of
// every word. It exists to demonstrate why the byte rearrangement of
// Figure 13 is necessary: any line with a non-zero word charges every chip.
type ByteScatterMapping struct{}

// Name implements ChipMapping.
func (ByteScatterMapping) Name() string { return "byte-scatter" }

// Scatter implements ChipMapping.
func (ByteScatterMapping) Scatter(l Line, _ int) [8]uint64 {
	b := l.Bytes()
	var out [8]uint64
	for chip := 0; chip < dram.LineChips; chip++ {
		var cw [8]byte
		for beat := 0; beat < 8; beat++ {
			cw[beat] = b[beat*8+chip]
		}
		out[chip] = binary.LittleEndian.Uint64(cw[:])
	}
	return out
}

// Gather implements ChipMapping.
func (ByteScatterMapping) Gather(words [8]uint64, _ int) Line {
	var b [64]byte
	for chip := 0; chip < dram.LineChips; chip++ {
		var cw [8]byte
		binary.LittleEndian.PutUint64(cw[:], words[chip])
		for beat := 0; beat < 8; beat++ {
			b[beat*8+chip] = cw[beat]
		}
	}
	return LineFromBytes(&b)
}
