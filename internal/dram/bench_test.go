package dram

import (
	"math/rand"
	"testing"

	"zerorefresh/internal/trace"
)

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

// benchPage returns a page of scattered lines for the store benchmarks:
// random words, one in four of them zero.
func benchPage(m *Module, seed int64) [][LineChips]uint64 {
	rng := rand.New(rand.NewSource(seed))
	lines := make([][LineChips]uint64, m.wordsPerRow)
	for i := range lines {
		for c := range lines[i] {
			if rng.Intn(4) != 0 {
				lines[i][c] = rng.Uint64()
			}
		}
	}
	return lines
}

// BenchmarkRowStore measures one full-row StoreRange burst: a page of 64
// lines stored into one rank-level row.
//
//	fresh:       every burst lands on a never-written row, so each chip-row
//	             claims its arena slot (a fresh module every 2048 rows,
//	             outside the timer).
//	overwritten: every burst rewrites a row that holds charged words, in
//	             place.
//	traced:      overwritten rows on a traced module, which stores one slot
//	             per call so its events come out in slot order.
func BenchmarkRowStore(b *testing.B) {
	store := func(m *Module, bank, row int, lines [][LineChips]uint64) {
		w := m.BeginRowWrite(bank, row, 0)
		StoreRange(&w, 0, lines)
		w.End()
	}
	b.Run("fresh", func(b *testing.B) {
		m := benchModule()
		lines := benchPage(m, 1)
		rows := m.cfg.Banks * m.cfg.RowsPerBank
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%rows == 0 && i > 0 {
				b.StopTimer()
				m = benchModule()
				b.StartTimer()
			}
			store(m, i%rows%m.cfg.Banks, i%rows/m.cfg.Banks, lines)
		}
	})
	overwrite := func(b *testing.B, m *Module) {
		pages := [2][][LineChips]uint64{benchPage(m, 1), benchPage(m, 2)}
		rows := m.cfg.RowsPerBank
		for r := 0; r < rows; r++ {
			store(m, 0, r, pages[0])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			store(m, 0, i%rows, pages[i/rows%2^1])
		}
	}
	b.Run("overwritten", func(b *testing.B) { overwrite(b, benchModule()) })
	b.Run("traced", func(b *testing.B) {
		m := benchModule()
		m.SetTracer(trace.New(1 << 16).NewShard("rank"))
		overwrite(b, m)
	})
}
