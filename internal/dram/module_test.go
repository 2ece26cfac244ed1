package dram

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testConfig() Config {
	cfg := DefaultConfig(8 << 20) // 8 MB: 256 rows/bank
	cfg.CellGroupRows = 64        // small interleave so tests touch both cell types
	return cfg
}

func TestWriteReadRoundTrip(t *testing.T) {
	m := New(testConfig())
	now := Time(0)
	m.WriteWord(3, 2, 10, 7, 0xDEADBEEFCAFEF00D, now)
	if got := m.ReadWord(3, 2, 10, 7, now+1); got != 0xDEADBEEFCAFEF00D {
		t.Fatalf("read back %#x", got)
	}
	// Unwritten slots of the same row read the discharged pattern for
	// the row's cell type.
	want := m.Config().CellTypeOf(10).DischargedWord()
	if got := m.ReadWord(3, 2, 10, 0, now+1); got != want {
		t.Fatalf("untouched slot = %#x, want %#x", got, want)
	}
}

func TestUnwrittenRowsAreDischargedAndFree(t *testing.T) {
	m := New(testConfig())
	if !m.RowDischargedAllChips(0, 0) {
		t.Fatal("fresh row must be discharged")
	}
	if m.MaterializedRows() != 0 {
		t.Fatal("fresh module should hold no storage")
	}
	// Reading touches the row state but claims no words.
	_ = m.ReadWord(0, 0, 0, 0, 0)
	if m.MaterializedRows() != 0 {
		t.Fatal("reads must not materialize row data")
	}
}

func TestDischargedPatternWritesStaySparse(t *testing.T) {
	m := New(testConfig())
	cfg := m.Config()
	trueRow, antiRow := 0, cfg.CellGroupRows // one row of each type
	if cfg.CellTypeOf(trueRow) != TrueCell || cfg.CellTypeOf(antiRow) != AntiCell {
		t.Fatal("test rows have unexpected cell types")
	}
	// Writing the discharged pattern (0 on true rows, ^0 on anti rows)
	// must not allocate storage: the cells stay discharged.
	for w := 0; w < cfg.WordsPerChipRow(); w++ {
		m.WriteWord(0, 0, trueRow, w, 0, 1)
		m.WriteWord(0, 0, antiRow, w, ^uint64(0), 1)
	}
	if m.MaterializedRows() != 0 {
		t.Fatalf("discharged writes materialized %d rows", m.MaterializedRows())
	}
	if !m.SenseDischarged(0, 0, trueRow) || !m.SenseDischarged(0, 0, antiRow) {
		t.Fatal("rows must stay discharged")
	}
	// Writing zeros to an *anti* row charges every cell.
	m.WriteWord(0, 0, antiRow, 0, 0, 2)
	if m.SenseDischarged(0, 0, antiRow) {
		t.Fatal("zero value on anti-cell row must be charged")
	}
	if got := m.ChargedCellCount(0, 0, antiRow); got != 64 {
		t.Fatalf("anti row charged cells = %d, want 64", got)
	}
}

func TestRowReleasedWhenRedischarged(t *testing.T) {
	m := New(testConfig())
	m.WriteWord(0, 0, 5, 3, 0xFF, 1)
	if m.MaterializedRows() != 1 {
		t.Fatalf("materialized = %d, want 1", m.MaterializedRows())
	}
	m.WriteWord(0, 0, 5, 3, 0, 2)
	if m.MaterializedRows() != 0 {
		t.Fatal("row storage should be released once fully discharged")
	}
	if !m.SenseDischarged(0, 0, 5) {
		t.Fatal("row should be discharged again")
	}
}

func TestRetentionDecayDestroysChargedData(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	tret := cfg.Timing.TRET
	m.WriteWord(1, 1, 7, 0, 0x1234, 0)

	// Within the retention window the data survives.
	if got := m.ReadWord(1, 1, 7, 0, tret); got != 0x1234 {
		t.Fatalf("data lost before deadline: %#x", got)
	}
	// The read recharged the row; another full window is fine.
	if got := m.ReadWord(1, 1, 7, 0, 2*tret); got != 0x1234 {
		t.Fatalf("data lost after recharge: %#x", got)
	}
	// Exceeding the window destroys charged cells.
	if got := m.ReadWord(1, 1, 7, 0, 3*tret+1); got != 0 {
		t.Fatalf("decayed row read %#x, want discharged 0", got)
	}
	if m.Stats().DecayEvents != 1 {
		t.Fatalf("DecayEvents = %d, want 1", m.Stats().DecayEvents)
	}
	if !m.EverDecayed(1, 1, 7) {
		t.Fatal("EverDecayed should be set")
	}
}

func TestDischargedRowsSurviveWithoutRefresh(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	antiRow := cfg.CellGroupRows
	// Store the discharged pattern and wait far past the deadline:
	// discharged cells are stable (Section III), so the data survives.
	m.WriteWord(0, 0, 3, 0, 0, 0)
	m.WriteWord(0, 0, antiRow, 0, ^uint64(0), 0)
	far := 100 * cfg.Timing.TRET
	if got := m.ReadWord(0, 0, 3, 0, far); got != 0 {
		t.Fatalf("true-cell zero decayed to %#x", got)
	}
	if got := m.ReadWord(0, 0, antiRow, 0, far); got != ^uint64(0) {
		t.Fatalf("anti-cell ones decayed to %#x", got)
	}
	if m.Stats().DecayEvents != 0 {
		t.Fatalf("DecayEvents = %d, want 0", m.Stats().DecayEvents)
	}
}

func TestRefreshExtendsRetention(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	tret := cfg.Timing.TRET
	m.WriteWord(0, 0, 9, 1, 0xABCD, 0)
	// Refresh every tRET for ten windows.
	for i := 1; i <= 10; i++ {
		if discharged := m.Refresh(0, 0, 9, Time(i)*tret); discharged {
			t.Fatal("charged row reported discharged")
		}
	}
	if got := m.ReadWord(0, 0, 9, 1, 11*tret); got != 0xABCD {
		t.Fatalf("refreshed data lost: %#x", got)
	}
	// Skipping the refresh in window 12 kills it.
	if got := m.ReadWord(0, 0, 9, 1, 13*tret); got != 0 {
		t.Fatalf("want decay, read %#x", got)
	}
}

func TestRefreshReportsDischargedStatus(t *testing.T) {
	m := New(testConfig())
	if !m.Refresh(0, 0, 0, 0) {
		t.Fatal("fresh row should report discharged during refresh")
	}
	m.WriteWord(0, 0, 0, 0, 1, 0)
	if m.Refresh(0, 0, 0, 1) {
		t.Fatal("charged row should not report discharged")
	}
	m.WriteWord(0, 0, 0, 0, 0, 2)
	if !m.Refresh(0, 0, 0, 3) {
		t.Fatal("re-discharged row should report discharged")
	}
}

func TestSparedRowsNeverReportDischarged(t *testing.T) {
	m := New(testConfig())
	m.MarkSpared(4)
	if !m.IsSpared(4) {
		t.Fatal("IsSpared lost the mark")
	}
	if m.SenseDischarged(0, 0, 4) {
		t.Fatal("spared row must not be skippable")
	}
	if m.RowDischargedAllChips(0, 4) {
		t.Fatal("spared row must fail the rank-level check too")
	}
}

func TestCheckIntegrity(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	m.WriteWord(0, 0, 1, 0, 7, 0)
	if v := m.CheckIntegrity(cfg.Timing.TRET); v != 0 {
		t.Fatalf("violations at deadline = %d, want 0", v)
	}
	if v := m.CheckIntegrity(cfg.Timing.TRET + 1); v != 1 {
		t.Fatalf("violations past deadline = %d, want 1", v)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(testConfig())
	for name, fn := range map[string]func(){
		"chip":    func() { m.ReadWord(99, 0, 0, 0, 0) },
		"bank":    func() { m.ReadWord(0, 99, 0, 0, 0) },
		"row":     func() { m.ReadWord(0, 0, 1<<30, 0, 0) },
		"word":    func() { m.ReadWord(0, 0, 0, 1<<20, 0) },
		"neg row": func() { m.WriteWord(0, 0, -1, 0, 0, 0) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

// recountCharged recomputes a row's charged-word count from scratch, the
// reference the incremental row.charged bookkeeping is checked against.
func recountCharged(words []uint64, ct CellType) int {
	n := 0
	for _, w := range words {
		if ct.ChargedBits(w) != 0 {
			n++
		}
	}
	return n
}

// Property: for any sequence of word writes within the retention window, a
// read returns exactly the last value written to that slot, regardless of
// cell type, and the charged-word bookkeeping matches a recount.
func TestQuickWriteReadConsistency(t *testing.T) {
	cfg := testConfig()
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(cfg)
		type slot struct{ chip, bank, row, word int }
		shadow := make(map[slot]uint64)
		now := Time(0)
		for i := 0; i < int(ops)+1; i++ {
			s := slot{
				rng.Intn(LineChips), rng.Intn(cfg.Banks),
				rng.Intn(cfg.RowsPerBank), rng.Intn(cfg.WordsPerChipRow()),
			}
			v := rng.Uint64()
			if rng.Intn(4) == 0 {
				v = cfg.CellTypeOf(s.row).DischargedWord()
			}
			m.WriteWord(s.chip, s.bank, s.row, s.word, v, now)
			shadow[s] = v
			now++
		}
		for s, want := range shadow {
			if got := m.ReadWord(s.chip, s.bank, s.row, s.word, now); got != want {
				return false
			}
		}
		// Bookkeeping invariant: the charged-word count matches a full
		// recount.
		for chip := 0; chip < LineChips; chip++ {
			for bank := 0; bank < cfg.Banks; bank++ {
				for rowIdx := 0; rowIdx < cfg.RowsPerBank; rowIdx++ {
					r := m.rowAt(chip, bank, rowIdx)
					ws := m.slabs[bank].words(r)
					if ws == nil {
						if r.charged != 0 {
							return false
						}
						continue
					}
					if recountCharged(ws, cfg.CellTypeOf(rowIdx)) != int(r.charged) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a row is discharged exactly when it stores the discharged
// pattern in every slot.
func TestQuickDischargedIffPattern(t *testing.T) {
	cfg := testConfig()
	f := func(rowIdx uint16, words []uint64) bool {
		m := New(cfg)
		r := int(rowIdx) % cfg.RowsPerBank
		ct := cfg.CellTypeOf(r)
		allPattern := true
		for i, w := range words {
			if i >= cfg.WordsPerChipRow() {
				break
			}
			m.WriteWord(0, 0, r, i, w, 0)
			if w != ct.DischargedWord() {
				allPattern = false
			}
		}
		return m.SenseDischarged(0, 0, r) == allPattern
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
