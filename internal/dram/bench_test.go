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

// commandGroups returns the diagonal groups of one auto-refresh command of
// the paper's 128 steps, starting at step first.
func commandGroups(m *Module, first int) [][LineChips]int {
	groups := make([][LineChips]int, 128)
	for i := range groups {
		groups[i] = diagonalGroup(m, first+i)
	}
	return groups
}

// chargedBenchModule returns a bench module whose bank 0 holds charged data
// in every row.
func chargedBenchModule() *Module {
	m := benchModule()
	for r := 0; r < m.cfg.RowsPerBank; r++ {
		burstFill(m, 0, r, uniformLine(chargedFill), 0)
	}
	return m
}

// BenchmarkRefreshGroups measures one auto-refresh command: 128 diagonal
// groups (1024 chip-rows) in one RefreshGroups call, cycling over the
// bank's two commands.
//
//	discharged: a bank no operation ever touched — every chip-row's state
//	            is the zero value and senses discharged.
//	charged:    every group row holds charged data, so the loop recharges
//	            and observes each chip-row.
func BenchmarkRefreshGroups(b *testing.B) {
	run := func(b *testing.B, m *Module, now Time) {
		cmds := [][][LineChips]int{commandGroups(m, 0), commandGroups(m, 128)}
		masks := make([]uint16, 128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.RefreshGroups(0, cmds[i%2], now, masks)
		}
	}
	b.Run("discharged", func(b *testing.B) { run(b, benchModule(), 0) })
	b.Run("charged", func(b *testing.B) { run(b, chargedBenchModule(), 1) })
}

// BenchmarkReplayRefreshGroups measures one bulk idle-window replay of 64
// refresh windows for the 128 diagonal groups of one auto-refresh command.
//
//	discharged: untouched bank — the per-chip loop finds untouched rows,
//	            so only the refresh counter moves.
//	charged:    materialized charged rows — the per-chip closed form with
//	            batched histogram observations.
func BenchmarkReplayRefreshGroups(b *testing.B) {
	const windows = 64
	const period = Time(1000)
	run := func(b *testing.B, m *Module) {
		cmds := [][][LineChips]int{commandGroups(m, 0), commandGroups(m, 128)}
		// Advance first monotonically so every replayed window sees a
		// fresh in-deadline age, never a decay.
		now := Time(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ReplayRefreshGroups(0, cmds[i%2], now, period, windows)
			now += Time(windows) * period
		}
	}
	b.Run("discharged", func(b *testing.B) { run(b, benchModule()) })
	b.Run("charged", func(b *testing.B) { run(b, chargedBenchModule()) })
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
