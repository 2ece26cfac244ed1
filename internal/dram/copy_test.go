package dram

import (
	"math/rand"
	"slices"
	"testing"
)

// copyGeometries returns the two geometries the copy test pins: the
// standard 8 MB test rank and a 4× taller one, so chunked arena growth and
// multi-word spared bitsets are both exercised.
func copyGeometries() map[string]Config {
	small := testConfig()
	tall := DefaultConfig(32 << 20) // 1024 rows/bank: 4 bitset words, 4 chunks
	tall.CellGroupRows = 64
	return map[string]Config{"8mb": small, "32mb": tall}
}

// driveOps applies ops [from, to) of a fixed random stream to m: uniform
// row fills from a small palette, dirty line writes, group refreshes and
// sparing, at a clock slow enough for untouched rows to pass their
// retention deadline. Op k is the same on every module.
func driveOps(m *Module, from, to int) {
	cfg := m.Config()
	palette := []uint64{0, ^uint64(0), 0x0123456789ABCDEF, 0x5A5A5A5A5A5A5A5A}
	for k := from; k < to; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		now := Time(k) * (cfg.Timing.TRET / 64)
		bank, row := rng.Intn(cfg.Banks), rng.Intn(cfg.RowsPerBank)
		switch rng.Intn(8) {
		case 0, 1, 2:
			burstFill(m, bank, row, uniformLine(palette[rng.Intn(len(palette))]), now)
		case 3, 4, 5:
			var line [LineChips]uint64
			for i := range line {
				line[i] = rng.Uint64()
			}
			m.WriteLineWords(bank, row, rng.Intn(cfg.WordsPerChipRow()), line, now)
		case 6:
			m.RefreshGroups(bank, [][LineChips]int{diagonalGroup(m, row)}, now, nil)
		case 7:
			m.MarkSpared(row)
		}
	}
}

// requireSameModule fails unless a and b hold the same cells and the same
// storage layout: every table entry (charge count, recharge time, flags and
// slot) and every materialized row's words; every slab's cursor, free list
// and chunk count; the spared rows and footprint shadows.
func requireSameModule(t *testing.T, a, b *Module) {
	t.Helper()
	cfg := a.Config()
	for chip := 0; chip < LineChips; chip++ {
		for bank := 0; bank < cfg.Banks; bank++ {
			for row := 0; row < cfg.RowsPerBank; row++ {
				ra, rb := a.rowAt(chip, bank, row), b.rowAt(chip, bank, row)
				if *ra != *rb || !slices.Equal(a.slabs[bank].words(ra), b.slabs[bank].words(rb)) {
					t.Fatalf("chip-row (%d,%d,%d) differs:\n%+v\n%+v", chip, bank, row, *ra, *rb)
				}
			}
		}
	}
	for i := range a.slabs {
		sa, sb := &a.slabs[i], &b.slabs[i]
		if sa.next != sb.next || !slices.Equal(sa.free, sb.free) || len(sa.chunks) != len(sb.chunks) {
			t.Fatalf("bank %d: slab layouts differ", i)
		}
	}
	if !slices.Equal(a.spared, b.spared) {
		t.Fatal("spared rows differ")
	}
	if a.storage.materialized != b.storage.materialized ||
		a.storage.reservedBytes != b.storage.reservedBytes || a.storage.usedBytes != b.storage.usedBytes {
		t.Fatal("storage shadows differ")
	}
}

// TestCopyFromMatchesSource copies a module part-way through a random drive
// into a fresh module. The copy must pass the storage audit and equal a
// twin driven to the same point, stay equal while the source runs on with
// other ops (storage shared with the source would change under it), and
// then stay equal to the twin as both are driven on alike.
func TestCopyFromMatchesSource(t *testing.T) {
	for name, cfg := range copyGeometries() {
		t.Run(name, func(t *testing.T) {
			src, twin := New(cfg), New(cfg)
			driveOps(src, 0, 3000)
			driveOps(twin, 0, 3000)
			c := New(cfg)
			if err := c.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
			checkStorageInvariants(t, c)
			requireSameModule(t, c, twin)
			driveOps(src, 10000, 13000)
			requireSameModule(t, c, twin)
			driveOps(c, 3000, 6000)
			driveOps(twin, 3000, 6000)
			requireSameModule(t, c, twin)
			checkStorageInvariants(t, c)
			if c.Stats().DecayEvents == 0 {
				t.Fatal("no row decayed; the drive never crossed a retention deadline")
			}
		})
	}
}

func TestCopyFromRejectsOtherGeometry(t *testing.T) {
	other := testConfig()
	other.CellGroupRows *= 2
	if err := New(other).CopyFrom(New(testConfig())); err == nil {
		t.Fatal("copy between modules of different configurations succeeded")
	}
}
