// Package dram is the fixture stand-in for the real DRAM layer: the one
// package allowed to touch cell state directly.
package dram

type Module struct{ rows []uint64 }

func New(n int) *Module { return &Module{rows: make([]uint64, n)} }

func (m *Module) Rows() int { return len(m.rows) }

func (m *Module) WriteWord(row int, v uint64) { m.rows[row] = v }

func (m *Module) Refresh(row int) bool { return m.rows[row] == 0 }

func (m *Module) MarkSpared(row int) { m.rows[row] = ^uint64(0) }

func (m *Module) ReadLineWords(row int) [8]uint64 { return [8]uint64{m.rows[row]} }

func (m *Module) RefreshGroups(groups [][8]int, masks []uint16) {}

func (m *Module) ReplayRefreshGroups(groups [][8]int, windows int64) {}

// RowWrite is the row-burst cursor: it exists only as BeginRowWrite's
// result.
type RowWrite struct {
	m   *Module
	row int
}

func (m *Module) BeginRowWrite(row int) RowWrite { return RowWrite{m: m, row: row} }

// StoreRange stores a range of slots through an open burst's cursor.
func StoreRange(w *RowWrite, first int, v []uint64) bool {
	w.m.rows[w.row] = v[0]
	return w.m.rows[w.row] == 0
}

func (w *RowWrite) End() {}

// CopyFrom overwrites every cell with src's.
func (m *Module) CopyFrom(src *Module) error {
	copy(m.rows, src.rows)
	return nil
}

// Recycle gives the module's storage away.
func (m *Module) Recycle() { m.rows = nil }
