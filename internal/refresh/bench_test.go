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

// autoRefreshFixture returns one op of the auto-refresh benchmarks: a full
// auto-refresh command (32 steps) with the access bit forced set, cycling
// over every (bank, set), so every step takes the refresh path. With
// charged the module is pre-seeded with 2000 random charged words;
// otherwise no operation ever touched it. The "scalar" mode drives the
// per-chip Refresh + IsSpared oracle (scalarBackend), "batched" the
// module's RefreshGroup call.
func autoRefreshFixture(mode string, charged bool) func() {
	m := testModule()
	cfg := m.Config()
	if charged {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 2000; i++ {
			m.WriteWord(rng.Intn(dram.LineChips), rng.Intn(cfg.Banks), rng.Intn(cfg.RowsPerBank),
				rng.Intn(cfg.WordsPerChipRow()), rng.Uint64()|1, 0)
		}
	}
	for r := 0; r < cfg.RowsPerBank; r += 29 {
		m.MarkSpared(r)
	}
	e := benchEngine(m, mode)
	i := 0
	return func() {
		bank := i % e.banks
		set := (i / e.banks) % e.numARs
		i++
		e.setAccessBit(bank, set)
		e.AutoRefreshSet(bank, set, 0)
	}
}

// BenchmarkAutoRefreshSetDischarged measures one auto-refresh command over
// a module no operation ever touched: the whole command resolves through
// the DRAM module's liveAny bitmap span probe without materializing or
// visiting a single row. This is the steady state of a mostly discharged
// bank, the case the charged-bitmap storage layer is built for.
func BenchmarkAutoRefreshSetDischarged(b *testing.B) {
	for _, mode := range []string{"scalar", "batched"} {
		op := autoRefreshFixture(mode, false)
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkAutoRefreshSet measures one auto-refresh command (256 chip-row
// refreshes) over a module holding 2000 random charged words.
func BenchmarkAutoRefreshSet(b *testing.B) {
	for _, mode := range []string{"scalar", "batched"} {
		op := autoRefreshFixture(mode, true)
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestSteadyStateAllocFree pins AutoRefreshSet allocation-free on charged
// and discharged modules, batched and through the scalar oracle, once every
// (bank, set) has been visited.
func TestSteadyStateAllocFree(t *testing.T) {
	for _, mode := range []string{"scalar", "batched"} {
		for _, charged := range []bool{true, false} {
			op := autoRefreshFixture(mode, charged)
			for i := 0; i < 64; i++ { // 8 banks x 8 AR sets
				op()
			}
			if n := testing.AllocsPerRun(200, op); n != 0 {
				t.Errorf("AutoRefreshSet %s charged=%v allocated %.1f times per op", mode, charged, n)
			}
		}
	}
}
