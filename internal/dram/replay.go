package dram

import "fmt"

// Bulk idle-window replay.
//
// When the refresh engine knows a diagonal group will be refreshed on a
// fixed cadence with nothing touching its rows in between — the steady
// state of an idle retention window — the per-window RefreshGroup calls
// are a fixed point: each one observes the same refresh age, recharges the
// same rows, and renews the same status. ReplayRefreshGroup collapses that
// whole run into one call whose final cell state, counter totals and
// histogram contents are bit-identical to the loop it replaces; the dense
// differential tests pin that equivalence.

// ReplayRefreshGroup applies `windows` evenly spaced RefreshGroup calls
// for the diagonal group rows[c] of the bank: the first at time `first`,
// the rest every `period` after it. It requires that no other operation
// touches the group's chip-rows during [first, first+(windows-1)*period]
// — the caller (the refresh engine's idle replay) guarantees that by only
// replaying windows with no intervening writes. The renewed status mask is
// not returned: the engine only replays steps whose status it already
// knows it will not update.
//
//zr:hotpath
func (m *Module) ReplayRefreshGroup(bank int, rows [LineChips]int, first, period Time, windows int64) {
	if windows <= 0 {
		return
	}
	if windows == 1 {
		m.RefreshGroup(bank, rows, first)
		return
	}
	if bank < 0 || bank >= m.cfg.Banks {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, m.cfg.Banks))
	}
	if period <= 0 {
		panic(fmt.Sprintf("dram: replay period %d must be positive", period))
	}
	tret := m.cfg.Timing.TRET
	traced := m.tr != nil
	rpb := uint(m.cfg.RowsPerBank)
	last := first + Time(windows-1)*period
	var decays, live int64
	var ages [LineChips]int64
	uniform := true
	for chip := 0; chip < LineChips; chip++ {
		rowIdx := rows[chip]
		if uint(rowIdx) >= rpb {
			m.checkRow(rowIdx) // out of range: the scalar panic
		}
		r := m.banks[chip*m.cfg.Banks+bank][rowIdx]
		if r == nil {
			// Never-touched row: every replayed refresh senses it fully
			// discharged and leaves it unmaterialized, exactly like the
			// per-window calls.
			continue
		}
		// First refresh: the only one whose age depends on prior history.
		if r.chargedWords > 0 && first-r.lastRecharge > tret {
			r.decay()
			decays++
			if traced {
				m.tr.Emit(traceRetentionViolation(first, chip, bank, rowIdx))
			}
		}
		ages[live] = int64(first - r.lastRecharge)
		if live > 0 && ages[live] != ages[0] {
			uniform = false
		}
		live++
		// Refreshes 2..windows all run exactly `period` after the previous
		// one. A row decays on the second refresh if the cadence itself
		// exceeds the deadline (it then stays discharged for the rest).
		if r.chargedWords > 0 && period > tret {
			r.decay()
			decays++
			if traced {
				m.tr.Emit(traceRetentionViolation(first+period, chip, bank, rowIdx))
			}
		}
		r.lastRecharge = last
	}
	// The histogram sees one first-refresh age per materialized chip-row —
	// batched into one ObserveN in the common case where the whole group
	// shares a recharge time (the idle steady state) — and windows-1
	// cadence observations per chip-row, which always batch.
	if live > 0 {
		if uniform {
			m.refreshedAge.ObserveN(ages[0], live)
		} else {
			for i := int64(0); i < live; i++ {
				m.refreshedAge.Observe(ages[i])
			}
		}
		m.refreshedAge.ObserveN(int64(period), live*(windows-1))
	}
	m.refreshes.Add(LineChips * windows)
	if decays != 0 {
		m.decayEvents.Add(decays)
	}
}
