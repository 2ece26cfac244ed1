package transform

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"zerorefresh/internal/proptest"
)

// The by-value scatters the in-place Scatter replaced, kept as the
// references it is pinned against: result[c] is chip c's word of l stored
// in rank-level row rowIdx.

func (m RotatedMapping) scatterLine(l Line, rowIdx int) [8]uint64 {
	var out [8]uint64
	for w, v := range l {
		out[m.ChipForWord(w, rowIdx)] = v
	}
	return out
}

func (DirectMapping) scatterLine(l Line, _ int) [8]uint64 { return [8]uint64(l) }

func (ByteScatterMapping) scatterLine(l Line, _ int) [8]uint64 {
	b := l.Bytes()
	var out [8]uint64
	for chip := 0; chip < 8; chip++ {
		var cw [8]byte
		for beat := 0; beat < 8; beat++ {
			cw[beat] = b[beat*8+chip]
		}
		out[chip] = binary.LittleEndian.Uint64(cw[:])
	}
	return out
}

// referenceMapping is a mapping with its by-value reference scatter.
type referenceMapping interface {
	ChipMapping
	scatterLine(l Line, rowIdx int) [8]uint64
}

var referenceMappings = []referenceMapping{RotatedMapping{}, DirectMapping{}, ByteScatterMapping{}}

// scatterOne scatters l as a one-line row, as the controller's WriteLine
// does.
func scatterOne(m ChipMapping, l Line, rowIdx int) [8]uint64 {
	row := []Line{l}
	m.Scatter(row, rowIdx)
	return row[0]
}

// TestScatterMatchesReference pins every mapping's in-place row scatter
// against its by-value reference, line by line, on rows 0–15 (two full
// rotation periods) of random 64-line rows and on one-line rows, and
// checks that Gather inverts it.
func TestScatterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, m := range referenceMappings {
		for rowIdx := 0; rowIdx < 16; rowIdx++ {
			for _, n := range []int{1, 64} {
				lines := make([]Line, n)
				for i := range lines {
					for w := range lines[i] {
						lines[i][w] = rng.Uint64()
					}
				}
				orig := append([]Line(nil), lines...)
				m.Scatter(lines, rowIdx)
				for i, l := range orig {
					if got, want := [8]uint64(lines[i]), m.scatterLine(l, rowIdx); got != want {
						t.Fatalf("%s row %d line %d of %d: scatter %x, reference %x", m.Name(), rowIdx, i, n, got, want)
					}
					if back := m.Gather(lines[i], rowIdx); back != l {
						t.Fatalf("%s row %d line %d of %d: gather %x, want %x", m.Name(), rowIdx, i, n, back, l)
					}
				}
			}
		}
	}
}

func TestRotatedMappingScatterGather(t *testing.T) {
	m := RotatedMapping{}
	f := func(l Line, row uint16) bool {
		r := int(row)
		return m.Gather(scatterOne(m, l, r), r) == l
	}
	if err := quick.Check(f, proptest.Config(t, 1000)); err != nil {
		t.Fatal(err)
	}
}

func TestRotatedMappingRotatesByRow(t *testing.T) {
	m := RotatedMapping{}
	l := Line{0, 1, 2, 3, 4, 5, 6, 7}
	// Row 0: word w on chip w.
	if got := scatterOne(m, l, 0); got != [8]uint64{0, 1, 2, 3, 4, 5, 6, 7} {
		t.Fatalf("row 0 scatter = %v", got)
	}
	// Row 3: word w on chip (w+3)%8, i.e. chip c holds word (c-3)%8.
	if got := scatterOne(m, l, 3); got != [8]uint64{5, 6, 7, 0, 1, 2, 3, 4} {
		t.Fatalf("row 3 scatter = %v", got)
	}
	// Rotation is periodic in the chip count.
	if scatterOne(m, l, 8) != scatterOne(m, l, 0) {
		t.Fatal("rotation should have period 8")
	}
}

func TestWordClassInvariant(t *testing.T) {
	// WordClassOf is the inverse view of ChipForWord: the chip that
	// stores word w in row r must report class w.
	m := RotatedMapping{}
	for r := 0; r < 32; r++ {
		for w := 0; w < 8; w++ {
			chip := m.ChipForWord(w, r)
			if got := m.WordClassOf(chip, r); got != w {
				t.Fatalf("row %d word %d on chip %d reports class %d", r, w, chip, got)
			}
		}
	}
}

func TestDirectMappingIsIdentity(t *testing.T) {
	m := DirectMapping{}
	l := Line{9, 8, 7, 6, 5, 4, 3, 2}
	if scatterOne(m, l, 17) != [8]uint64(l) {
		t.Fatal("direct scatter should be the identity")
	}
	if m.Gather([8]uint64(l), 17) != l {
		t.Fatal("direct gather should be the identity")
	}
}

func TestByteScatterMappingRoundTrip(t *testing.T) {
	m := ByteScatterMapping{}
	f := func(l Line) bool { return m.Gather(scatterOne(m, l, 0), 0) == l }
	if err := quick.Check(f, proptest.Config(t, 1000)); err != nil {
		t.Fatal(err)
	}
}

func TestByteScatterSpreadsWordsAcrossAllChips(t *testing.T) {
	// The motivating failure of the conventional burst mapping
	// (Figure 13): a line whose only non-zero word is the base still
	// deposits one non-zero byte into every chip.
	l := Line{0x0101010101010101} // base non-zero, everything else zero
	for chip, w := range scatterOne(ByteScatterMapping{}, l, 0) {
		if w == 0 {
			t.Fatalf("chip %d received no charge under byte scatter", chip)
		}
	}
	// The rotated mapping confines the same line to a single chip.
	nonZero := 0
	for _, w := range scatterOne(RotatedMapping{}, l, 0) {
		if w != 0 {
			nonZero++
		}
	}
	if nonZero != 1 {
		t.Fatalf("rotated mapping charged %d chips, want 1", nonZero)
	}
}

func TestMappingNames(t *testing.T) {
	for _, tc := range []struct {
		m    ChipMapping
		want string
	}{
		{RotatedMapping{}, "rotated"},
		{DirectMapping{}, "direct"},
		{ByteScatterMapping{}, "byte-scatter"},
	} {
		if got := tc.m.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}
