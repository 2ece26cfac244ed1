package dram

import "fmt"

// Line-granular batched operations.
//
// The scalar WriteWord/ReadWord/Refresh contract charges every simulated
// word with its own bounds check, row activation, retention check, trace
// guard and atomic counter update — eight times per cacheline, since a line
// spreads one word onto each chip of the rank. The batched entry points
// below perform the same state transitions for a whole (bank, row) group in
// one call: one bounds check, one pass over the chips with the hot fields
// hoisted, and one atomic Add per counter instead of eight Incs. They are
// observationally identical to the scalar loops they replace — same final
// cell state, same counter totals, same trace events in the same order —
// which the differential tests in module_test.go and internal/memctrl pin.
//
// On top of the batching, the arena/CoW storage layer (arena.go) gives the
// group operations two sub-linear fast paths: RefreshGroup renews a group
// whose rows are provably untouched with a few bitmap loads, and
// FillRowWords serves a whole-row fill with one uniform word by aliasing a
// shared sentinel row instead of storing WordsPerChipRow words.

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

// activateRow is the loop body shared by the batched operations: it brings
// chip's row into the sense amplifiers with the retention model applied,
// exactly like the scalar activate, but with the counter update left to the
// caller (which batches it) and the decay count returned for the same
// reason. traced is the hoisted nil-guard of the caller.
func (m *Module) activateRow(chip, bank, rowIdx int, now Time, traced bool) (*row, int64) {
	b := m.banks[chip*m.cfg.Banks+bank]
	r := b[rowIdx]
	if r == nil {
		r = m.arenas[chip*m.cfg.Banks+bank].newRow(rowIdx, now)
		b[rowIdx] = r
	}
	var decays int64
	if r.chargedWords > 0 && now-r.lastRecharge > m.cfg.Timing.TRET {
		r.decay()
		decays = 1
		if traced {
			m.tr.Emit(traceRetentionViolation(now, chip, bank, rowIdx))
		}
	}
	r.lastRecharge = now
	return r, decays
}

// WriteLineWords stores one word per chip into word slot `slot` of the same
// (bank, row) in all LineChips chips — the whole cacheline the controller
// scattered — and reports whether every touched chip-row is fully
// discharged afterwards. It is the batched equivalent of eight WriteWord
// calls and leaves identical state, counters and trace events behind.
//
//zr:hotpath
func (m *Module) WriteLineWords(bank, rowIdx, slot int, words [LineChips]uint64, now Time) bool {
	m.checkLine(bank, rowIdx, slot)
	ct := m.cfg.CellTypeOf(rowIdx)
	tret := m.cfg.Timing.TRET
	traced := m.tr != nil
	var decays int64
	all := true
	// activateRow inlined by hand: the compiler won't, and one call per
	// chip is most of what this path exists to remove. The bank slices of
	// consecutive chips sit cfg.Banks apart in m.banks. banks and the
	// stride are hoisted into locals: the calls in the loop body keep the
	// compiler from proving the fields loop-invariant.
	banks := m.banks
	stride := m.cfg.Banks
	idx := bank
	for chip := 0; chip < LineChips; chip++ {
		b := banks[idx]
		r := b[rowIdx]
		if r == nil {
			r = m.arenas[idx].newRow(rowIdx, now)
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
		before := r.chargedWords == 0
		// writeWord's materialized fast path, specialized inline: the
		// compiler cannot inline the full method (cost 152 vs budget 80)
		// and the call per chip is the last per-word overhead left. The
		// discharged-row and copy-on-write cases stay in the shared
		// slow-path helper, so the semantics are writeWord's exactly.
		wv := words[chip]
		var after bool
		if r.words != nil && !r.cow {
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
			m.tr.Emit(traceChargeTransition(now, chip, bank, rowIdx, after))
		}
	}
	m.activations.Add(LineChips)
	m.wordWrites.Add(LineChips)
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
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
			r = m.arenas[idx].newRow(rowIdx, now)
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
// When the bank's liveAny bitmap proves no chip ever materialized a row
// struct at any of the group's indices — the dominant case on a mostly
// discharged bank — the whole group resolves with a few bitmap loads: no
// row probes, no histogram observations (never-touched rows record none),
// just the counter bump and the spare-aware status mask.
//
//zr:hotpath
func (m *Module) RefreshGroup(bank int, rows [LineChips]int, now Time) uint16 {
	if bank < 0 || bank >= m.cfg.Banks {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, m.cfg.Banks))
	}
	if m.liveAnyGroupEmpty(bank, &rows) {
		m.refreshes.Add(LineChips)
		return m.groupSpareMask(&rows)
	}
	traced := m.tr != nil
	tret := m.cfg.Timing.TRET
	rpb := uint(m.cfg.RowsPerBank)
	var mask uint16
	var decays int64
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
		m.refreshedAge.Observe(int64(now - r.lastRecharge))
		r.lastRecharge = now
		if r.chargedWords == 0 && !m.sparedRow(rowIdx) {
			mask |= 1 << chip
		}
	}
	m.refreshes.Add(LineChips)
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
	return mask
}

// RefreshSpanDischarged attempts the span-level refresh fast path: if no
// chip of the rank ever materialized a row struct in rows [lo, hi) of the
// bank, it accounts the `groups` diagonal-group refreshes (LineChips chip-rows
// each) the caller's step-by-step sweep over the span would perform —
// never-touched rows mutate nothing and record no histogram age, so the
// counter is the sweep's entire effect — and reports true. Otherwise it
// does nothing and reports false, leaving the caller to run its per-step
// loop. `groups` is passed separately because a staggered sweep's probe
// span is block-aligned and can be slightly wider than the steps it
// covers. The refresh engine uses this to resolve one whole auto-refresh
// command over a discharged span in O(span/64) bitmap words.
//
//zr:hotpath
func (m *Module) RefreshSpanDischarged(bank, lo, hi, groups int) bool {
	if bank < 0 || bank >= m.cfg.Banks {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, m.cfg.Banks))
	}
	if lo < 0 || hi > m.cfg.RowsPerBank || lo >= hi {
		return false
	}
	if m.liveCnt[bank] != 0 {
		la := m.liveAny[bank]
		for w := lo >> 6; w <= (hi-1)>>6; w++ {
			word := la[w]
			if w == lo>>6 {
				word &^= 1<<(uint(lo)&63) - 1
			}
			if w == (hi-1)>>6 && uint(hi)&63 != 0 {
				word &= 1<<(uint(hi)&63) - 1
			}
			if word != 0 {
				return false
			}
		}
	}
	m.refreshes.Add(int64(groups) * LineChips)
	return true
}

// groupSpareMask builds the status mask of an all-never-touched diagonal
// group: every chip-row is discharged, so only row sparing can hold a bit
// low. The rows are already bounds-checked by liveAnyGroupEmpty.
func (m *Module) groupSpareMask(rows *[LineChips]int) uint16 {
	if m.spared == nil {
		return 1<<LineChips - 1
	}
	var mask uint16
	for chip := 0; chip < LineChips; chip++ {
		if !m.sparedRow(rows[chip]) {
			mask |= 1 << chip
		}
	}
	return mask
}

// FillRowWords stores the same one-word-per-chip pattern into every word
// slot of (bank, row) across all LineChips chips — the whole rank-level row
// in one call. It is the batched equivalent of WriteLineWords per slot
// (itself the batched WriteWord loop) and is the backend of the
// controller's bulk page-cleansing path: the row is activated once per chip
// and the fill then runs over cached row pointers with no per-word checks.
// Counter totals and trace events match the scalar slot-major loop exactly.
//
// The fill itself is O(chips), not O(chips × words): a chip whose fill word
// is the discharged pattern just releases its storage, and a charged fill
// word aliases a shared sentinel row (copy-on-write; see arena.go) instead
// of storing WordsPerChipRow copies. The one case whose trace output
// depends on row *content* — a discharged fill over a live charged row
// emits its charge transition at the content-dependent slot where the
// scalar loop's charged-word count reaches zero — falls back to the dense
// slot-major loop, which remains the reference implementation.
//
//zr:hotpath
func (m *Module) FillRowWords(bank, rowIdx int, words [LineChips]uint64, now Time) {
	m.checkLine(bank, rowIdx, 0)
	wordsPerRow := m.wordsPerRow
	ct := m.cfg.CellTypeOf(rowIdx)
	traced := m.tr != nil
	if traced {
		for chip := 0; chip < LineChips; chip++ {
			if ct.ChargedBits(words[chip]) != 0 {
				continue
			}
			if r := m.banks[chip*m.cfg.Banks+bank][rowIdx]; r != nil && r.chargedWords > 0 {
				m.fillRowWordsDense(bank, rowIdx, words, now)
				return
			}
		}
	}
	var decays, cowHits int64
	// One sentinel lookup covers the whole call in the dominant case: the
	// controller's bulk fills scatter the same encoded line to every chip,
	// so all eight fill words usually coincide.
	var lastV uint64
	var lastS []uint64
	lastOK := false
	stride := m.cfg.Banks
	idx := bank
	for chip := 0; chip < LineChips; chip++ {
		b := m.banks[idx]
		r := b[rowIdx]
		if r == nil {
			r = m.arenas[idx].newRow(rowIdx, now)
			b[rowIdx] = r
		} else if r.chargedWords > 0 && now-r.lastRecharge > m.cfg.Timing.TRET {
			r.decay()
			decays++
			if traced {
				m.tr.Emit(traceRetentionViolation(now, chip, bank, rowIdx))
			}
		}
		idx += stride
		r.lastRecharge = now
		wv := words[chip]
		if ct.ChargedBits(wv) == 0 {
			// Discharged fill: the row ends storage-free. A live charged row
			// only reaches here untraced (the traced case took the dense
			// fallback above), so no transition event is owed.
			if r.words != nil {
				r.chargedWords = 0
				r.releaseWords()
			}
			continue
		}
		// Charged fill: the scalar loop's only transition fires right after
		// the slot-0 write, per chip in chip order — exactly here.
		if traced && r.chargedWords == 0 {
			m.tr.Emit(traceChargeTransition(now, chip, bank, rowIdx, false))
		}
		if !lastOK || wv != lastV {
			lastS, lastV, lastOK = m.sentinel(wv), wv, true
		}
		if lastS != nil {
			r.attachSentinel(lastS, wordsPerRow)
			cowHits++
		} else {
			r.fillOwned(wv, wordsPerRow)
		}
	}
	m.activations.Add(int64(LineChips * wordsPerRow))
	m.wordWrites.Add(int64(LineChips * wordsPerRow))
	if cowHits != 0 {
		m.storage.cowHits.Add(cowHits)
	}
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
}

// fillOwned stores the uniform charged word v into every slot of an owned
// arena slot — the eager fill behind FillRowWords when the sentinel cache
// is at capacity.
func (r *row) fillOwned(v uint64, wordsPerRow int) {
	if r.cow || r.words == nil {
		ws, slot := r.arena.alloc()
		if r.words == nil {
			r.arena.st.noteMaterialized(1)
		}
		r.words = ws
		r.slot = slot
		r.cow = false
	}
	for i := range r.words {
		r.words[i] = v
	}
	if r.chargedWords == 0 {
		r.arena.setCharged(r.idx)
	}
	r.chargedWords = wordsPerRow
}

// fillRowWordsDense is the slot-major reference fill: the batched
// equivalent of WriteLineWords per slot, byte-for-byte the pre-arena
// FillRowWords body. The fast path falls back to it for the one
// content-dependent trace case; the differential twins use it to pin the
// fast path.
func (m *Module) fillRowWordsDense(bank, rowIdx int, words [LineChips]uint64, now Time) {
	wordsPerRow := m.wordsPerRow
	ct := m.cfg.CellTypeOf(rowIdx)
	traced := m.tr != nil
	var rows [LineChips]*row
	var decays int64
	// Slot 0 doubles as the per-chip activation pass, interleaving any
	// retention-violation and charge-transition events per chip exactly as
	// the scalar loop would.
	for chip := 0; chip < LineChips; chip++ {
		r, d := m.activateRow(chip, bank, rowIdx, now, traced)
		decays += d
		before := r.discharged()
		after := r.writeWord(0, words[chip], ct)
		if traced && before != after {
			m.tr.Emit(traceChargeTransition(now, chip, bank, rowIdx, after))
		}
		rows[chip] = r
	}
	for slot := 1; slot < wordsPerRow; slot++ {
		for chip, r := range rows {
			before := r.discharged()
			after := r.writeWord(slot, words[chip], ct)
			if traced && before != after {
				m.tr.Emit(traceChargeTransition(now, chip, bank, rowIdx, after))
			}
		}
	}
	m.activations.Add(int64(LineChips * wordsPerRow))
	m.wordWrites.Add(int64(LineChips * wordsPerRow))
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
}
