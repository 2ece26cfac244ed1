package dram

import (
	"reflect"
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
//   - a chip-row owns a slot exactly while it holds a charged word, and its
//     count matches a recount of its words,
//   - every owned slot was handed out, is not on the free list, and belongs
//     to one chip-row of its bank only,
//   - the materialized-rows shadow equals the storage scan,
//   - arena used/reserved bytes match the live slot and chunk counts.
func checkStorageInvariants(t *testing.T, m *Module) {
	t.Helper()
	cfg := m.Config()
	for bank := range m.slabs {
		s := &m.slabs[bank]
		owner := make(map[int32]bool)
		for _, slot := range s.free {
			owner[slot] = true
		}
		for chip := 0; chip < LineChips; chip++ {
			for idx := 0; idx < cfg.RowsPerBank; idx++ {
				r := m.rowAt(chip, bank, idx)
				if (r.slot != 0) != (r.charged != 0) {
					t.Fatalf("chip-row (%d,%d,%d): slot %d with %d charged words", chip, bank, idx, r.slot-1, r.charged)
				}
				if r.slot == 0 {
					continue
				}
				slot := r.slot - 1
				if slot >= s.next || owner[slot] {
					t.Fatalf("chip-row (%d,%d,%d) owns slot %d: free, shared or past the cursor %d", chip, bank, idx, slot, s.next)
				}
				owner[slot] = true
				if n := recountCharged(s.words(r), cfg.CellTypeOf(idx)); n != int(r.charged) {
					t.Fatalf("chip-row (%d,%d,%d) counts %d charged words, holds %d", chip, bank, idx, r.charged, n)
				}
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

// TestRowStateIs16BytesPointerFree pins the chip-row state at 16 bytes
// with no field the garbage collector would have to scan, so the module's
// table of every chip-row stays one flat, unscanned allocation.
func TestRowStateIs16BytesPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(row{}); n != 16 {
		t.Fatalf("row state is %d bytes, want 16", n)
	}
	typ := reflect.TypeOf(row{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("row field %s is a %s, which may hold a pointer", f.Name, f.Type.Kind())
		}
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
	// over untouched rows. The charged replay advances monotonically, so
	// every replayed window sees a fresh in-deadline age, never a decay.
	// Each refresh call carries one auto-refresh command of 32 groups.
	groups := make([][LineChips]int, 32)
	for i := range groups {
		groups[i] = diagonalGroup(m, 64+i)
	}
	masks := make([]uint16, len(groups))
	replayAt := Time(1)
	checks := map[string]func(){
		"RowWrite/burst":                 func() { burstFill(m, 0, 13, charged, 0) },
		"WriteLineWords":                 func() { m.WriteLineWords(0, 11, 3, charged, 0) },
		"ReadLineWords":                  func() { _ = m.ReadLineWords(0, 11, 3, 0) },
		"RefreshGroups/charged":          func() { m.RefreshGroups(0, groups, 0, masks) },
		"RefreshGroups/discharged":       func() { m.RefreshGroups(1, groups, 0, nil) },
		"ReplayRefreshGroups/discharged": func() { m.ReplayRefreshGroups(1, groups, 0, 1000, 64) },
		"ReplayRefreshGroups/charged": func() {
			m.ReplayRefreshGroups(0, groups, replayAt, 1000, 64)
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
