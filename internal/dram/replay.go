package dram

import "fmt"

// Bulk idle-window replay.
//
// When the refresh engine knows a command's diagonal groups will be
// refreshed on a fixed cadence with nothing touching their rows in between
// — the steady state of an idle retention window — the per-window
// RefreshGroups calls are a fixed point: each one observes the same refresh
// age, recharges the same rows, and renews the same status.
// ReplayRefreshGroups collapses that whole run into one call whose final
// cell state, storage layout, counter totals, histogram contents and trace
// events are bit-identical to the loop it replaces; the dense differential
// tests and FuzzRefreshGroupsMatchScalar pin that equivalence.

// ReplayRefreshGroups applies `windows` evenly spaced RefreshGroups calls
// for the diagonal groups of one bank: the first at time `first`, the rest
// every `period` after it. It requires that the groups name distinct
// chip-rows — the steps of one auto-refresh command do — and that no other
// operation touches them during [first, first+(windows-1)*period]; the
// caller (the refresh engine's idle replay) guarantees that by only
// replaying windows with no intervening writes. The renewed status masks
// are not returned: the engine only replays steps whose status it already
// knows it will not update.
//
//zr:hotpath
func (m *Module) ReplayRefreshGroups(bank int, groups [][LineChips]int, first, period Time, windows int64) {
	if windows <= 0 {
		return
	}
	if windows == 1 {
		m.RefreshGroups(bank, groups, first, nil)
		return
	}
	m.checkBank(bank)
	if period <= 0 {
		panic(fmt.Sprintf("dram: replay period %d must be positive", period))
	}
	tret := m.cfg.Timing.TRET
	traced := m.tr != nil
	rpb := uint(m.cfg.RowsPerBank)
	s := &m.slabs[bank]
	table, stride := m.rows, m.chipStride
	base := m.tableIndex(0, bank, 0)
	last := first + Time(windows-1)*period
	var decays, live, age, run int64
	for g := range groups {
		rows := &groups[g]
		idx := base
		for chip := 0; chip < LineChips; chip++ {
			rowIdx := rows[chip]
			if uint(rowIdx) >= rpb {
				m.checkRow(rowIdx) // out of range: the scalar panic
			}
			r := &table[idx+rowIdx]
			idx += stride
			if r.flags&rowTouched == 0 {
				// Never-touched row: every replayed refresh senses it fully
				// discharged and leaves it untouched, exactly like the
				// per-window calls.
				continue
			}
			// First refresh: the only one whose age depends on prior
			// history. Its ages are observed in runs of equal ages, as
			// RefreshGroups observes them.
			if r.overdue(first, tret) {
				s.decay(r)
				decays++
				if traced {
					m.tr.Emit(traceRetentionViolation(first, chip, bank, rowIdx))
				}
			}
			if a := int64(first - r.lastRecharge); a != age {
				m.refreshedAge.ObserveN(age, run)
				age, run = a, 0
			}
			run++
			live++
			r.lastRecharge = last
		}
	}
	m.refreshedAge.ObserveN(age, run)
	// Refreshes 2..windows each observe the cadence on every touched
	// chip-row, which always batches.
	m.refreshedAge.ObserveN(int64(period), live*(windows-1))
	if period > tret {
		// The cadence itself exceeds the deadline, so every row still
		// charged decays on the second refresh (and stays discharged for
		// the rest), in the second window's group and chip order.
		for g := range groups {
			rows := &groups[g]
			idx := base
			for chip := 0; chip < LineChips; chip++ {
				r := &table[idx+rows[chip]]
				idx += stride
				if r.charged > 0 {
					s.decay(r)
					decays++
					if traced {
						m.tr.Emit(traceRetentionViolation(first+period, chip, bank, rows[chip]))
					}
				}
			}
		}
	}
	m.refreshes.Add(LineChips * windows * int64(len(groups)))
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
}
