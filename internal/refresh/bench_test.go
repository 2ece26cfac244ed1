package refresh

import (
	"math/rand"
	"testing"

	"zerorefresh/internal/dram"
)

// benchEngine builds the test engine on m, behind the per-chip scalar
// oracle for the "scalar" mode.
func benchEngine(m *dram.Module, mode string) *Engine {
	cfg := DefaultConfig()
	cfg.RowsPerAR = 32
	if mode == "scalar" {
		return NewEngine(scalarBackend{m}, cfg)
	}
	return NewEngine(m, cfg)
}

// BenchmarkAutoRefreshSetDischarged measures one full auto-refresh command
// (32 steps) with the access bit forced set, over a module no operation ever
// touched: the whole command resolves through the DRAM module's liveAny
// bitmap span probe without materializing or visiting a single row. This is
// the steady state of a mostly discharged bank, the case the charged-bitmap
// storage layer is built for.
func BenchmarkAutoRefreshSetDischarged(b *testing.B) {
	for _, mode := range []string{"scalar", "batched"} {
		m := testModule()
		cfg := m.Config()
		for r := 0; r < cfg.RowsPerBank; r += 29 {
			m.MarkSpared(r)
		}
		e := benchEngine(m, mode)
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bank := i % e.banks
				set := (i / e.banks) % e.numARs
				e.setAccessBit(bank, set)
				e.AutoRefreshSet(bank, set, 0)
			}
		})
	}
}

// BenchmarkAutoRefreshSet measures one full auto-refresh command (32 steps,
// 256 chip-row refreshes) over a module pre-seeded with 2000 random charged
// words, with the access bit forced set, so every step takes the refresh
// path. The scalar sub drives the per-chip Refresh + IsSpared oracle
// (scalarBackend); the batched sub drives the module's RefreshGroup call.
func BenchmarkAutoRefreshSet(b *testing.B) {
	for _, mode := range []string{"scalar", "batched"} {
		m := testModule()
		cfg := m.Config()
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 2000; i++ {
			m.WriteWord(rng.Intn(dram.LineChips), rng.Intn(cfg.Banks), rng.Intn(cfg.RowsPerBank),
				rng.Intn(cfg.WordsPerChipRow()), rng.Uint64()|1, 0)
		}
		for r := 0; r < cfg.RowsPerBank; r += 29 {
			m.MarkSpared(r)
		}
		e := benchEngine(m, mode)
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bank := i % e.banks
				set := (i / e.banks) % e.numARs
				e.setAccessBit(bank, set)
				e.AutoRefreshSet(bank, set, 0)
			}
		})
	}
}
