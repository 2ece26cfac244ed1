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
// burst (BeginRowWrite) goes one step further for a whole page: each
// chip-row is activated once and the counters are added once per row. They
// are observationally identical to the scalar loops they replace — same
// final cell state, same counter totals, same trace events in the same
// order — which the differential tests in batch_test.go and
// internal/memctrl pin. A refresh takes the same loop whether or not a row
// was ever touched: an untouched row is a nil pointer that senses fully
// discharged, like the wired-OR detector of Section IV-B on a row that
// never held charge.

// checkLine bounds-checks one line-granular access. It is the single guard
// a batched call performs, replacing the per-chip checkAddr/word checks of
// the scalar path.
func (m *Module) checkLine(bank, rowIdx, slot int) {
	if bank < 0 || bank >= m.cfg.Banks {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, m.cfg.Banks))
	}
	if rowIdx < 0 || rowIdx >= m.cfg.RowsPerBank {
		panic(fmt.Sprintf("dram: row %d out of range [0,%d)", rowIdx, m.cfg.RowsPerBank))
	}
	if slot < 0 || slot >= m.wordsPerRow {
		panic(fmt.Sprintf("dram: word %d out of range [0,%d)", slot, m.wordsPerRow))
	}
}

// RowWrite is an open row burst: the cursor a row-granular store holds
// while it writes one (bank, row) of all LineChips chips slot by slot. The
// first Write activates each chip-row once — the retention model applies
// there — and later Writes store through the cached row pointers; End adds
// the burst's counters. A burst of n Writes is observationally identical to
// n WriteLineWords calls at the same time: same cell state, same counter
// totals, and each Write emits exactly the retention-violation and
// charge-transition events its WriteLineWords would, in the same order, so
// a caller that emits its own per-slot events between Writes interleaves
// them as a line-by-line loop would. A RowWrite comes only from
// BeginRowWrite (the zero value has no module) and serves one burst.
type RowWrite struct {
	m      *Module
	rows   [LineChips]*row // nil until the first Write activates them
	bank   int
	rowIdx int
	now    Time
	ct     CellType
	slots  int64 // Writes so far
	decays int64 // chip-rows that lost charge at activation
}

// BeginRowWrite opens a row burst on (bank, row) at time now. It is the one
// bounds check of the burst; nothing is activated until the first Write.
//
//zr:hotpath
func (m *Module) BeginRowWrite(bank, rowIdx int, now Time) RowWrite {
	m.checkLine(bank, rowIdx, 0)
	return RowWrite{m: m, bank: bank, rowIdx: rowIdx, now: now, ct: m.cfg.CellTypeOf(rowIdx)}
}

// Write stores words[c] into word slot `slot` of the burst's row in chip c
// — one scattered cacheline, read through the pointer in place — and
// reports whether every chip-row is fully discharged afterwards. It is the
// one store loop of the batched datapath: WriteLineWords is a one-slot
// burst.
//
//zr:hotpath
func (w *RowWrite) Write(slot int, words *[LineChips]uint64) bool {
	m := w.m
	if uint(slot) >= uint(m.wordsPerRow) {
		m.checkLine(w.bank, w.rowIdx, slot) // out of range: the bounds panic
	}
	ct := w.ct
	traced := m.tr != nil
	all := true
	for chip := 0; chip < LineChips; chip++ {
		r := w.rows[chip]
		if r == nil {
			// The burst's first Write activates the chip-row, exactly like
			// the scalar activate, with the counters left to End. Inlined
			// by hand: a call per chip would be most of a one-slot burst.
			// The bank slices of consecutive chips sit cfg.Banks apart.
			idx := chip*m.cfg.Banks + w.bank
			b := m.banks[idx]
			if r = b[w.rowIdx]; r == nil {
				r = m.slabs[w.bank].newRow(chip, w.rowIdx, w.now)
				b[w.rowIdx] = r
			} else if r.chargedWords > 0 && w.now-r.lastRecharge > m.cfg.Timing.TRET {
				r.decay()
				w.decays++
				if traced {
					m.tr.Emit(traceRetentionViolation(w.now, chip, w.bank, w.rowIdx))
				}
			}
			r.lastRecharge = w.now
			w.rows[chip] = r
		}
		before := r.chargedWords == 0
		// writeWord's materialized fast path, specialized inline: the
		// compiler cannot inline the full method and the call per chip is
		// the last per-word overhead left. The discharged-row case stays
		// in the shared slow-path helper, so the semantics are writeWord's
		// exactly.
		wv := words[chip]
		var after bool
		if r.words != nil {
			oldCharged := ct.ChargedBits(r.words[slot]) != 0
			newCharged := ct.ChargedBits(wv) != 0
			r.words[slot] = wv
			if oldCharged != newCharged {
				after = r.adjustCharged(newCharged)
			} else {
				after = r.chargedWords == 0
			}
		} else {
			after = r.writeWordSlow(slot, wv, ct)
		}
		if !after {
			all = false
		}
		if traced && before != after {
			m.tr.Emit(traceChargeTransition(w.now, chip, w.bank, w.rowIdx, after))
		}
	}
	w.slots++
	return all
}

// End closes the burst: one Add per counter for all of its Writes.
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

// WriteLineWords stores one word per chip into word slot `slot` of the same
// (bank, row) in all LineChips chips — the whole cacheline the controller
// scattered — and reports whether every touched chip-row is fully
// discharged afterwards. It is a one-slot row burst, the batched equivalent
// of eight WriteWord calls, and leaves identical state, counters and trace
// events behind.
//
//zr:hotpath
func (m *Module) WriteLineWords(bank, rowIdx, slot int, words [LineChips]uint64, now Time) bool {
	w := m.BeginRowWrite(bank, rowIdx, now)
	all := w.Write(slot, &words)
	w.End()
	return all
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
	var out [LineChips]uint64
	var decays int64
	banks := m.banks
	stride := m.cfg.Banks
	idx := bank
	for chip := 0; chip < LineChips; chip++ {
		b := banks[idx]
		r := b[rowIdx]
		if r == nil {
			r = m.slabs[bank].newRow(chip, rowIdx, now)
			b[rowIdx] = r
		} else if r.chargedWords > 0 && now-r.lastRecharge > tret {
			r.decay()
			decays++
			if traced {
				m.tr.Emit(traceRetentionViolation(now, chip, bank, rowIdx))
			}
		}
		idx += stride
		r.lastRecharge = now
		out[chip] = r.readWord(slot, ct)
	}
	m.activations.Add(LineChips)
	m.wordReads.Add(LineChips)
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
	return out
}

// RefreshGroup recharges one chip-row per chip — rows[c] in chip c, the
// diagonal group of one staggered refresh step — and returns the renewed
// status mask: bit c set iff chip c's row was fully discharged and is not
// remapped by row sparing. It is the batched equivalent of the refresh
// engine's scalar loop of Refresh + IsSpared per chip.
//
//zr:hotpath
func (m *Module) RefreshGroup(bank int, rows [LineChips]int, now Time) uint16 {
	if bank < 0 || bank >= m.cfg.Banks {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, m.cfg.Banks))
	}
	traced := m.tr != nil
	tret := m.cfg.Timing.TRET
	rpb := uint(m.cfg.RowsPerBank)
	var mask uint16
	var decays int64
	// The refresh ages are observed in runs of equal consecutive ages, one
	// ObserveN per run: a group's rows usually share a recharge time.
	var age, run int64
	stride := m.cfg.Banks
	idx := bank
	for chip := 0; chip < LineChips; chip++ {
		rowIdx := rows[chip]
		if uint(rowIdx) >= rpb {
			m.checkRow(rowIdx) // out of range: the scalar panic
		}
		r := m.banks[idx][rowIdx]
		idx += stride
		if r == nil {
			// Never-touched row: fully discharged; the refresh is still
			// performed by the hardware when commanded.
			if !m.sparedRow(rowIdx) {
				mask |= 1 << chip
			}
			continue
		}
		if r.chargedWords > 0 && now-r.lastRecharge > tret {
			r.decay()
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
		if r.chargedWords == 0 && !m.sparedRow(rowIdx) {
			mask |= 1 << chip
		}
	}
	m.refreshedAge.ObserveN(age, run)
	m.refreshes.Add(LineChips)
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
	return mask
}
