package dram

import "testing"

// chargedFill is a fill word that is charged for both cell types (neither
// all-zeros nor all-ones), so the same benchmark body exercises true- and
// anti-cell rows identically.
const chargedFill = uint64(0x0123456789ABCDEF)

// benchModule returns a module on the standard 8 MB test geometry with no
// tracer, matching the steady-state controller configuration the batched
// fast paths are tuned for.
func benchModule() *Module {
	return New(testConfig())
}

// diagonalGroup returns the staggered refresh group anchored at row base,
// matching the engine's rows[c] = (base+c) mod RowsPerBank layout.
func diagonalGroup(m *Module, base int) (rows [LineChips]int) {
	for c := range rows {
		rows[c] = (base + c) % m.cfg.RowsPerBank
	}
	return rows
}

// BenchmarkRefreshGroup measures one diagonal group refresh (8 chip-rows)
// through the dense loop.
//
//	discharged: a bank no operation ever touched — each chip-row is a nil
//	            pointer that senses discharged.
//	charged:    every group row holds charged data, so the loop recharges
//	            and observes each chip-row.
func BenchmarkRefreshGroup(b *testing.B) {
	b.Run("discharged", func(b *testing.B) {
		m := benchModule()
		groups := m.cfg.RowsPerBank
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RefreshGroup(0, diagonalGroup(m, i%groups), 0)
		}
	})

	b.Run("charged", func(b *testing.B) {
		m := benchModule()
		var line [LineChips]uint64
		for i := range line {
			line[i] = chargedFill
		}
		rows := m.cfg.RowsPerBank
		for r := 0; r < rows; r++ {
			burstFill(m, 0, r, line, 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RefreshGroup(0, diagonalGroup(m, i%rows), 1)
		}
	})
}

// BenchmarkReplayRefreshGroup measures one bulk idle-window replay of 64
// refresh windows for a diagonal group.
//
//	discharged: untouched bank — the per-chip loop finds eight nil rows,
//	            so only the refresh counter moves.
//	charged:    materialized charged rows — the per-chip closed form with
//	            batched histogram observations.
func BenchmarkReplayRefreshGroup(b *testing.B) {
	const windows = 64
	const period = Time(1000)

	b.Run("discharged", func(b *testing.B) {
		m := benchModule()
		groups := m.cfg.RowsPerBank
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ReplayRefreshGroup(0, diagonalGroup(m, i%groups), 0, period, windows)
		}
	})

	b.Run("charged", func(b *testing.B) {
		m := benchModule()
		var line [LineChips]uint64
		for i := range line {
			line[i] = chargedFill
		}
		rows := m.cfg.RowsPerBank
		for r := 0; r < rows; r++ {
			burstFill(m, 0, r, line, 0)
		}
		// Advance first monotonically so every replayed window sees a
		// fresh in-deadline age, never a decay.
		now := Time(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ReplayRefreshGroup(0, diagonalGroup(m, i%rows), now, period, windows)
			now += Time(windows) * period
		}
	})
}
