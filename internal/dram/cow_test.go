package dram

import (
	"math/bits"
	"math/rand"
	"testing"
)

// Targeted coverage for the copy-on-write sentinel rows: every aliasing
// transition — dirty write after a zero fill, spared-row remap, retention
// decay of a shared row — is driven against the eager twin (a row burst
// per fill plus the scalar loops) and must leave bit-identical observable
// state. checkStorageInvariants then audits the arena
// bookkeeping that the metrics gauges report.

// cowGeometries returns the two geometries the CoW tests pin: the standard
// 8 MB test rank and a 4× taller one, so chunked arena growth and
// multi-word bitmaps are both exercised.
func cowGeometries() map[string]Config {
	small := testConfig()
	tall := DefaultConfig(32 << 20) // 1024 rows/bank: 4 bitmap words, 4 chunks
	tall.CellGroupRows = 64
	return map[string]Config{"8mb": small, "32mb": tall}
}

// uniformLine returns the line that fills every chip with v.
func uniformLine(v uint64) (l [LineChips]uint64) {
	for i := range l {
		l[i] = v
	}
	return l
}

// checkStorageInvariants audits the arena/CoW bookkeeping against a full
// scan of the module:
//   - the materialized-rows shadow equals the storage scan,
//   - arena used/reserved bytes match the live slot and chunk counts,
//   - every charged-bitmap bit mirrors chargedWords > 0,
//   - every liveAny bit mirrors struct existence, and liveCnt its popcount,
//   - every sentinel row still holds only its own fill value.
func checkStorageInvariants(t *testing.T, m *Module) {
	t.Helper()
	cfg := m.Config()
	if got, want := m.storage.materialized, int64(m.MaterializedRows()); got != want {
		t.Fatalf("materialized shadow = %d, scan = %d", got, want)
	}
	var slots, chunks int64
	for i := range m.slabs {
		s := &m.slabs[i]
		slots += int64(s.next) - int64(len(s.free))
		chunks += int64(len(s.chunks))
	}
	wordBytes := int64(cfg.WordsPerChipRow()) * WordBytes
	if got, want := m.storage.usedBytes, slots*wordBytes; got != want {
		t.Fatalf("usedBytes shadow = %d, live slots say %d", got, want)
	}
	if got, want := m.storage.reservedBytes, chunks*int64(m.slabs[0].chunkRows)*wordBytes; got != want {
		t.Fatalf("reservedBytes shadow = %d, chunks say %d", got, want)
	}
	for chip := 0; chip < LineChips; chip++ {
		for bank := 0; bank < cfg.Banks; bank++ {
			a := &m.arenas[chip*cfg.Banks+bank]
			rows := m.bankOf(chip, bank)
			for row := 0; row < cfg.RowsPerBank; row++ {
				r := rows[row]
				wantCharged := r != nil && r.chargedWords > 0
				gotCharged := a.charged[row>>6]&(1<<(uint(row)&63)) != 0
				if gotCharged != wantCharged {
					t.Fatalf("charged bitmap bit (%d,%d,%d) = %v, chargedWords say %v",
						chip, bank, row, gotCharged, wantCharged)
				}
			}
		}
	}
	for bank := 0; bank < cfg.Banks; bank++ {
		var cnt int32
		for row := 0; row < cfg.RowsPerBank; row++ {
			var any bool
			for chip := 0; chip < LineChips; chip++ {
				if m.bankOf(chip, bank)[row] != nil {
					any = true
					break
				}
			}
			got := m.liveAny[bank][row>>6]&(1<<(uint(row)&63)) != 0
			if got != any {
				t.Fatalf("liveAny bit (bank %d, row %d) = %v, structs say %v", bank, row, got, any)
			}
		}
		for _, w := range m.liveAny[bank] {
			cnt += int32(bits.OnesCount64(w))
		}
		if cnt != m.liveCnt[bank] {
			t.Fatalf("liveCnt[%d] = %d, bitmap popcount = %d", bank, m.liveCnt[bank], cnt)
		}
	}
	for v, s := range m.sentinels {
		for i, w := range s {
			if w != v {
				t.Fatalf("sentinel %#x corrupted at word %d: %#x", v, i, w)
			}
		}
	}
}

// eagerFillTwin drives the same fill slot by slot through one row burst on
// the twin module.
func eagerFillTwin(b *Module, bank, row int, words [LineChips]uint64, now Time) {
	burstFill(b, bank, row, words, now)
}

// TestCoWWriteAfterZeroFill pins the first-dirty-write materialization: a
// row aliasing a shared sentinel must copy into the arena on its first
// word write, leave the sentinel untouched, and stay bit-identical to the
// eager twin throughout.
func TestCoWWriteAfterZeroFill(t *testing.T) {
	for name, cfg := range cowGeometries() {
		t.Run(name, func(t *testing.T) {
			a, b, ta, tb := twinModules(t, cfg, 0)
			fill := uniformLine(0x0123456789ABCDEF)
			now := Time(0)
			for row := 0; row < 12; row++ {
				fillRow(a, 2, row, fill, now)
				eagerFillTwin(b, 2, row, fill, now)
			}
			// Rows 0..5 take a dirty write; 6..11 stay aliased.
			for row := 0; row < 6; row++ {
				line := uniformLine(uint64(0xFEED0000 + row))
				a.WriteLineWords(2, row, row%cfg.WordsPerChipRow(), line, now+1)
				scalarWriteLine(b, 2, row, row%cfg.WordsPerChipRow(), line, now+1)
			}
			for row := 0; row < 6; row++ {
				for chip := 0; chip < LineChips; chip++ {
					if r := a.bankOf(chip, 2)[row]; r.cow {
						t.Fatalf("row (%d,2,%d) still aliased after dirty write", chip, row)
					}
				}
			}
			for row := 6; row < 12; row++ {
				for chip := 0; chip < LineChips; chip++ {
					if r := a.bankOf(chip, 2)[row]; !r.cow {
						t.Fatalf("untouched row (%d,2,%d) lost its sentinel alias", chip, row)
					}
				}
			}
			compareTwins(t, a, b, ta, tb)
			checkStorageInvariants(t, a)
		})
	}
}

// TestCoWSparedRemap pins the spared-row escape hatch: remapping a row that
// currently aliases a sentinel must materialize a private copy (spared rows
// are physically distinct storage), identical in content to the eager twin.
func TestCoWSparedRemap(t *testing.T) {
	for name, cfg := range cowGeometries() {
		t.Run(name, func(t *testing.T) {
			a, b, ta, tb := twinModules(t, cfg, 0)
			fill := uniformLine(0x5A5A5A5A5A5A5A5A)
			for row := 20; row < 28; row++ {
				fillRow(a, 1, row, fill, 0)
				eagerFillTwin(b, 1, row, fill, 0)
			}
			a.MarkSpared(22)
			b.MarkSpared(22)
			for chip := 0; chip < LineChips; chip++ {
				if r := a.bankOf(chip, 1)[22]; r.cow {
					t.Fatalf("spared row (%d,1,22) still aliases the shared sentinel", chip)
				}
			}
			// The remapped copy must be writable without disturbing rows
			// that still share the sentinel.
			a.WriteLineWords(1, 22, 0, uniformLine(7), 1)
			scalarWriteLine(b, 1, 22, 0, uniformLine(7), 1)
			compareTwins(t, a, b, ta, tb)
			checkStorageInvariants(t, a)
		})
	}
}

// TestCoWSentinelDecay pins retention decay of an aliased row: the row
// discharges and releases its (shared) storage without owning a slot, the
// sentinel survives for its other aliases, and the decay is bit-identical
// to the eager twin's.
func TestCoWSentinelDecay(t *testing.T) {
	for name, cfg := range cowGeometries() {
		t.Run(name, func(t *testing.T) {
			a, b, ta, tb := twinModules(t, cfg, 0)
			tret := cfg.Timing.TRET
			fill := uniformLine(0x00FF00FF00FF00FF)
			for row := 40; row < 44; row++ {
				fillRow(a, 3, row, fill, 0)
				eagerFillTwin(b, 3, row, fill, 0)
			}
			// Row 40 is read after its deadline and decays; 41..43 are
			// refreshed in time and keep their sentinel alias.
			for row := 41; row < 44; row++ {
				a.RefreshGroup(3, diagonalGroup(a, row), tret/2)
				scalarRefreshGroup(b, 3, diagonalGroup(b, row), tret/2)
			}
			late := tret + tret/2 + 1
			got := a.ReadLineWords(3, 40, 0, late)
			want := b.ReadLineWords(3, 40, 0, late)
			if got != want {
				t.Fatalf("post-decay read diverged: %x vs %x", got, want)
			}
			d := cfg.CellTypeOf(40).DischargedWord()
			for chip := 0; chip < LineChips; chip++ {
				if got[chip] != d {
					t.Fatalf("chip %d read %#x after decay, want discharged %#x", chip, got[chip], d)
				}
			}
			for chip := 0; chip < LineChips; chip++ {
				r := a.bankOf(chip, 3)[40]
				if r.words != nil || r.cow || !r.everDecayed {
					t.Fatalf("decayed row (%d,3,40) kept storage: words=%v cow=%v everDecayed=%v",
						chip, r.words != nil, r.cow, r.everDecayed)
				}
			}
			compareTwins(t, a, b, ta, tb)
			checkStorageInvariants(t, a)
		})
	}
}

// TestCoWAliasFuzz drives a random mix of uniform fills (from a small
// palette, so sentinel sharing is heavy), dirty writes, sparing, group
// refreshes and decay windows against the eager twin on both geometries,
// then audits the storage invariants.
func TestCoWAliasFuzz(t *testing.T) {
	for name, cfg := range cowGeometries() {
		t.Run(name, func(t *testing.T) {
			a, b, ta, tb := twinModules(t, cfg, 0)
			tret := cfg.Timing.TRET
			rng := rand.New(rand.NewSource(99))
			palette := []uint64{0, ^uint64(0), 0x0123456789ABCDEF, 0x5A5A5A5A5A5A5A5A, 1}
			now := Time(0)
			for op := 0; op < 4000; op++ {
				bank := rng.Intn(cfg.Banks)
				row := rng.Intn(cfg.RowsPerBank)
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // uniform fill, palette value
					line := uniformLine(palette[rng.Intn(len(palette))])
					fillRow(a, bank, row, line, now)
					eagerFillTwin(b, bank, row, line, now)
				case 4, 5, 6: // dirty line write
					var line [LineChips]uint64
					for i := range line {
						line[i] = rng.Uint64()
					}
					slot := rng.Intn(cfg.WordsPerChipRow())
					a.WriteLineWords(bank, row, slot, line, now)
					scalarWriteLine(b, bank, row, slot, line, now)
				case 7: // group refresh
					g := diagonalGroup(a, row)
					if got, want := a.RefreshGroup(bank, g, now), scalarRefreshGroup(b, bank, g, now); got != want {
						t.Fatalf("op %d: refresh masks diverged: %#x vs %#x", op, got, want)
					}
				case 8: // spare (idempotent)
					a.MarkSpared(row)
					b.MarkSpared(row)
				case 9: // let part of the rank pass its deadline
					now += tret / 4
				}
				now++
			}
			compareTwins(t, a, b, ta, tb)
			checkStorageInvariants(t, a)
		})
	}
}

// TestSteadyStateAllocFree pins the 0 allocs/op contract of the
// post-materialization hot paths: once rows, sentinels and arena chunks
// exist, the batched operations must never allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	charged := uniformLine(0x0123456789ABCDEF)
	for row := 0; row < cfg.RowsPerBank; row++ {
		m.FillRowWords(0, row, charged, 0)
	}
	// The charged replay advances monotonically, so every replayed window
	// sees a fresh in-deadline age, never a decay.
	replayAt := Time(1)
	checks := map[string]func(){
		"FillRowWords/cow":              func() { m.FillRowWords(0, 7, charged, 0) },
		"FillRowWords/discharged":       func() { m.FillRowWords(0, 9, dischargedLine(m, 9), 0) },
		"RowWrite/burst":                func() { burstFill(m, 0, 13, charged, 0) },
		"WriteLineWords":                func() { m.WriteLineWords(0, 11, 3, charged, 0) },
		"ReadLineWords":                 func() { _ = m.ReadLineWords(0, 11, 3, 0) },
		"RefreshGroup/charged":          func() { m.RefreshGroup(0, diagonalGroup(m, 16), 0) },
		"RefreshGroup/discharged":       func() { m.RefreshGroup(1, diagonalGroup(m, 16), 0) },
		"ReplayRefreshGroup/discharged": func() { m.ReplayRefreshGroup(1, diagonalGroup(m, 24), 0, 1000, 64) },
		"ReplayRefreshGroup/charged": func() {
			m.ReplayRefreshGroup(0, diagonalGroup(m, 40), replayAt, 1000, 64)
			replayAt += 64 * 1000
		},
		"RefreshSpanDischarged": func() { m.RefreshSpanDischarged(1, 0, 32, 32) },
		"NextRetentionDeadline": func() { m.NextRetentionDeadline() },
	}
	for name, fn := range checks {
		fn() // warm any per-path lazy state before measuring
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s allocated %.1f times per op on the steady-state path", name, n)
		}
	}
}
