package dram

import (
	"testing"
	"unsafe"
)

// Storage-layer audits: checkStorageInvariants cross-checks the arena
// bookkeeping that the dram.storage.* gauges report against a full scan of
// the module, and TestSteadyStateAllocFree pins the batched operations
// allocation-free once rows and arena chunks exist.

// uniformLine returns the line that fills every chip with v.
func uniformLine(v uint64) (l [LineChips]uint64) {
	for i := range l {
		l[i] = v
	}
	return l
}

// checkStorageInvariants audits the arena bookkeeping against a full scan
// of the module:
//   - every row struct names its own slab, chip and row index,
//   - the materialized-rows shadow equals the storage scan,
//   - arena used/reserved bytes match the live slot and chunk counts.
func checkStorageInvariants(t *testing.T, m *Module) {
	t.Helper()
	cfg := m.Config()
	for i, rows := range m.banks {
		for idx, r := range rows {
			if r != nil && (r.slab != &m.slabs[i%cfg.Banks] || int(r.chip) != i/cfg.Banks || int(r.idx) != idx) {
				t.Fatalf("chip-bank %d row %d: struct stamped chip %d row %d or another slab", i, idx, r.chip, r.idx)
			}
		}
	}
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
}

// TestRowStructIs64Bytes pins the row struct at 64 bytes: chip rides in
// everDecayed's padding.
func TestRowStructIs64Bytes(t *testing.T) {
	if n := unsafe.Sizeof(row{}); n != 64 {
		t.Fatalf("row struct is %d bytes, want 64", n)
	}
}

// TestSteadyStateAllocFree pins the 0 allocs/op contract of the
// post-materialization hot paths: once rows and arena chunks exist, the
// batched operations must never allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	cfg := testConfig()
	m := New(cfg)
	charged := uniformLine(chargedFill)
	for row := 0; row < cfg.RowsPerBank; row++ {
		burstFill(m, 0, row, charged, 0)
	}
	// Bank 1 is never touched, so the discharged cases run the dense loops
	// over nil rows. The charged replay advances monotonically, so every
	// replayed window sees a fresh in-deadline age, never a decay.
	replayAt := Time(1)
	checks := map[string]func(){
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
	}
	for name, fn := range checks {
		fn() // warm any per-path lazy state before measuring
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s allocated %.1f times per op on the steady-state path", name, n)
		}
	}
}
