package dram

import "fmt"

// Line- and row-granular batched operations.
//
// The scalar WriteWord/ReadWord/Refresh contract charges every simulated
// word with its own bounds check, row activation, retention check, trace
// guard and atomic counter update — eight times per cacheline, since a line
// spreads one word onto each chip of the rank. The batched entry points
// below perform the same state transitions for a whole (bank, row) group in
// one call: one bounds check, one pass over the chips with the hot fields
// hoisted, and one atomic Add per counter instead of eight Incs. A row
// burst (BeginRowWrite) goes one step further for a whole page: StoreRange
// stores a range of slots chip-row by chip-row — one activation, one
// charged-word count and one column copy per chip-row, the granularity of
// the rotated mapping and of the wired-OR detector — and the counters are
// added once per burst. A single line is a one-slot range. They are
// observationally identical to the scalar loops they replace — same final
// cell state, same storage layout, same counter totals, same trace events
// in the same order — which the differential tests in batch_test.go and
// internal/memctrl pin against a per-slot reference store. RefreshGroups
// refreshes every diagonal group of one auto-refresh command in one call,
// with one ObserveN per run of equal refresh ages and one Add per counter.
// A refresh takes the same loop whether or not a row was ever touched: an
// untouched row's zero state senses fully discharged, like the wired-OR
// detector of Section IV-B on a row that never held charge.

// checkLine bounds-checks one line-granular access. It is the single guard
// a batched call performs, replacing the per-chip checkAddr/word checks of
// the scalar path.
func (m *Module) checkLine(bank, rowIdx, slot int) {
	m.checkBank(bank)
	m.checkRow(rowIdx)
	if slot < 0 || slot >= m.wordsPerRow {
		panic(fmt.Sprintf("dram: word %d out of range [0,%d)", slot, m.wordsPerRow))
	}
}

// RowWrite is an open row burst: the cursor a row-granular store holds
// while it writes one (bank, row) of all LineChips chips. The burst's first
// StoreRange activates each chip-row once — the retention model applies
// there — and later stores reuse the cached row-state pointers; End adds
// the burst's counters. A RowWrite comes only from BeginRowWrite (the zero
// value has no module) and serves one burst.
type RowWrite struct {
	m      *Module
	rows   [LineChips]*row // nil until the first store activates them; point into m.rows
	bank   int
	rowIdx int
	now    Time
	ct     CellType
	slots  int64 // slots stored so far
	decays int64 // chip-rows that lost charge at activation
}

// BeginRowWrite opens a row burst on (bank, row) at time now. It is the one
// bounds check of the burst's row; nothing is activated until the first
// store.
//
//zr:hotpath
func (m *Module) BeginRowWrite(bank, rowIdx int, now Time) RowWrite {
	m.checkLine(bank, rowIdx, 0)
	return RowWrite{m: m, bank: bank, rowIdx: rowIdx, now: now, ct: m.cfg.CellTypeOf(rowIdx)}
}

// StoreRange stores lines[i][c] into word slot first+i of the burst's row
// in chip c — a range of scattered cachelines, read in place — and reports
// whether every chip-row is fully discharged afterwards. It is the one
// store loop of the batched datapath, and it works chip-row by chip-row,
// as the rotated mapping lays a page out (Section V-D): per chip it counts
// the charged words the range overwrites and the charged words it writes,
// takes or returns the chip-row's arena slot, and copies the chip's column
// of lines into the slot. Only the slots a range does not write get the
// discharged fill of a freshly claimed slot; a full row gets none.
//
// The result is that of one store per slot in slot order: same cell
// state, same counters, and the same storage layout. A chip-row's charged
// count reaches or leaves zero at most once each in a range, since every
// word left after it reaches zero is discharged, so a chip-row takes or
// returns its slot at most twice; those slab operations are applied in
// (slot, chip) order, with a decay at activation first, exactly as the
// slot-by-slot loop applies them. A traced module stores several slots as
// one call per slot, so each slot's retention-violation and
// charge-transition events come out in slot order.
//
//zr:hotpath
func StoreRange[L ~[LineChips]uint64](w *RowWrite, first int, lines []L) bool {
	m := w.m
	n := len(lines)
	if first < 0 || n == 0 || first > m.wordsPerRow-n {
		m.checkRange(w.bank, w.rowIdx, first, n) // out of range: the bounds panic
	}
	if m.tr != nil && n > 1 {
		all := true
		for i := range lines {
			all = StoreRange(w, first+i, lines[i:i+1])
		}
		return all
	}
	w.slots += int64(n)
	// ev holds the range's slab operations, keyed by (slot, chip, phase):
	// phase 0 is a decay at activation, phase 1 the store of the slot.
	var ev [2 * LineChips]int32
	ne := 0
	if w.rows[0] == nil {
		// The burst's first store activates the chip-row in every chip,
		// exactly like the scalar activate, with the counters left to End.
		// A row that lost its charge keeps its slot until the slab
		// operations below return it, and the store emits its
		// retention-violation event in chip order. The states of
		// consecutive chips sit chipStride apart.
		tret := m.cfg.Timing.TRET
		idx := m.tableIndex(0, w.bank, w.rowIdx)
		for chip := 0; chip < LineChips; chip++ {
			r := &m.rows[idx]
			idx += m.chipStride
			if r.overdue(w.now, tret) {
				r.charged = 0
				r.flags |= rowDecayed
				w.decays++
				ev[ne] = int32(chip * 2)
				ne++
			}
			r.flags |= rowTouched
			r.lastRecharge = w.now
			w.rows[chip] = r
		}
	}
	s := &m.slabs[w.bank]
	d := w.ct.DischargedWord()
	all := true
	for chip := 0; chip < LineChips; chip++ {
		r := w.rows[chip]
		count, at := int(r.charged), 0
		if count > 0 {
			// The row keeps its slot until the count reaches zero, so the
			// column is stored in place as it is counted.
			ws := s.slotWords(r.slot - 1)[first : first+n]
			at = n
			for i := range lines {
				v := lines[i][chip]
				count += b2i(v != d) - b2i(ws[i] != d)
				ws[i] = v
				if count == 0 {
					at = i
					break
				}
			}
			if count == 0 {
				ev[ne] = int32((at*LineChips+chip)*2 + 1)
				ne++
				at++
			}
		}
		if count == 0 {
			// Every word left is discharged: the count rises from the
			// first charged word written, which claims a slot.
			for at < n && lines[at][chip] == d {
				at++
			}
			if at < n {
				ev[ne] = int32((at*LineChips+chip)*2 + 1)
				ne++
				for j := at; j < n; j++ {
					count += b2i(lines[j][chip] != d)
				}
			}
		}
		r.charged = uint16(count)
		if count != 0 {
			all = false
		}
	}
	if ne == 0 {
		return all
	}
	sortKeys(ev[:ne])
	if m.tr != nil {
		// A traced store is one slot, so its events are its operations in
		// key order: chip by chip, the decay before the store, which moved
		// the charged count to or from zero.
		for _, k := range ev[:ne] {
			chip := int(k / 2 % LineChips)
			if k%2 == 0 {
				m.tr.Emit(traceRetentionViolation(w.now, chip, w.bank, w.rowIdx))
			} else {
				m.tr.Emit(traceChargeTransition(w.now, chip, w.bank, w.rowIdx, w.rows[chip].charged == 0))
			}
		}
	}
	// Apply the slab operations in slot order. A chip-row's own operations
	// alternate, so its state names each one: a row holding words returns
	// them, a row without claims a slot.
	var claimed uint32
	for _, k := range ev[:ne] {
		chip := k / 2 % LineChips
		r := w.rows[chip]
		if r.slot != 0 {
			s.release(r)
			claimed &^= 1 << chip
		} else {
			s.claim(r)
			claimed |= 1 << chip
		}
	}
	for chip := 0; chip < LineChips; chip++ {
		if claimed&(1<<chip) == 0 {
			continue
		}
		ws := s.slotWords(w.rows[chip].slot - 1)
		fillWords(ws[:first], d)
		fillWords(ws[first+n:], d)
		ws = ws[first : first+n]
		for i := range lines {
			ws[i] = lines[i][chip]
		}
	}
	return all
}

// End closes the burst: one Add per counter for all of its slots.
//
//zr:hotpath
func (w *RowWrite) End() {
	n := w.slots * LineChips
	w.m.activations.Add(n)
	w.m.wordWrites.Add(n)
	if w.decays != 0 {
		w.m.decayEvents.Add(w.decays)
	}
}

// checkRange panics for a store of n slots from first that is empty or
// leaves the row.
func (m *Module) checkRange(bank, rowIdx, first, n int) {
	m.checkLine(bank, rowIdx, first)
	if n == 0 {
		panic(fmt.Sprintf("dram: empty store at word %d", first))
	}
	m.checkLine(bank, rowIdx, first+n-1)
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sortKeys sorts a range's slab-operation keys, at most two per chip, in
// place. The decays arrive first and the stores in chip order, so the keys
// are already sorted unless a store comes before another chip's decay or
// chips cross zero at different slots.
func sortKeys(k []int32) {
	for i := 1; i < len(k); i++ {
		for j := i; j > 0 && k[j] < k[j-1]; j-- {
			k[j], k[j-1] = k[j-1], k[j]
		}
	}
}

// fillWords sets every word of ws to v.
func fillWords(ws []uint64, v uint64) {
	for i := range ws {
		ws[i] = v
	}
}

// ReadLineWords returns word slot `slot` of the same (bank, row) in all
// LineChips chips, applying the retention model as the hardware would. It
// is the batched equivalent of eight ReadWord calls.
//
//zr:hotpath
func (m *Module) ReadLineWords(bank, rowIdx, slot int, now Time) [LineChips]uint64 {
	m.checkLine(bank, rowIdx, slot)
	ct := m.cfg.CellTypeOf(rowIdx)
	tret := m.cfg.Timing.TRET
	traced := m.tr != nil
	s := &m.slabs[bank]
	var out [LineChips]uint64
	var decays int64
	idx := m.tableIndex(0, bank, rowIdx)
	for chip := 0; chip < LineChips; chip++ {
		r := &m.rows[idx]
		idx += m.chipStride
		if r.overdue(now, tret) {
			s.decay(r)
			decays++
			if traced {
				m.tr.Emit(traceRetentionViolation(now, chip, bank, rowIdx))
			}
		}
		r.flags |= rowTouched
		r.lastRecharge = now
		out[chip] = s.readWord(r, slot, ct)
	}
	m.activations.Add(LineChips)
	m.wordReads.Add(LineChips)
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
	return out
}

// RefreshGroups refreshes diagonal groups in order — each groups[i] one
// staggered refresh step, row groups[i][c] in chip c — all at time now, as
// one auto-refresh command does, and stores the renewed status mask of
// groups[i] in masks[i]: bit c set iff chip c's row was fully discharged
// and is not remapped by row sparing. masks is nil when the caller does not
// want them, and otherwise as long as groups. The call is the batched
// equivalent of the refresh engine's scalar loop of Refresh + IsSpared per
// chip per group, in group order: same cells, slots, counters, histogram
// and trace events. The refresh ages are observed in runs of equal ages
// across the whole call — one ObserveN per run, since a command's rows
// mostly share their last recharge time — and each counter is added once.
//
//zr:hotpath
func (m *Module) RefreshGroups(bank int, groups [][LineChips]int, now Time, masks []uint16) {
	m.checkBank(bank)
	if masks != nil && len(masks) != len(groups) {
		panic(fmt.Sprintf("dram: %d status masks for %d refresh groups", len(masks), len(groups)))
	}
	traced := m.tr != nil
	tret := m.cfg.Timing.TRET
	rpb := uint(m.cfg.RowsPerBank)
	s := &m.slabs[bank]
	table, stride, spared := m.rows, m.chipStride, m.spared
	base := m.tableIndex(0, bank, 0)
	var decays, age, run int64
	for g := range groups {
		rows := &groups[g]
		var mask uint16
		idx := base
		for chip := 0; chip < LineChips; chip++ {
			rowIdx := rows[chip]
			if uint(rowIdx) >= rpb {
				m.checkRow(rowIdx) // out of range: the scalar panic
			}
			r := &table[idx+rowIdx]
			idx += stride
			if r.flags&rowTouched == 0 {
				// Never-touched row: fully discharged; the refresh is
				// still performed by the hardware when commanded.
				if !spared.has(rowIdx) {
					mask |= 1 << chip
				}
				continue
			}
			if r.overdue(now, tret) {
				s.decay(r)
				decays++
				if traced {
					m.tr.Emit(traceRetentionViolation(now, chip, bank, rowIdx))
				}
			}
			if a := int64(now - r.lastRecharge); a != age {
				m.refreshedAge.ObserveN(age, run)
				age, run = a, 0
			}
			run++
			r.lastRecharge = now
			if r.charged == 0 && !spared.has(rowIdx) {
				mask |= 1 << chip
			}
		}
		if masks != nil {
			masks[g] = mask
		}
	}
	m.refreshedAge.ObserveN(age, run)
	m.refreshes.Add(int64(LineChips * len(groups)))
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
}
