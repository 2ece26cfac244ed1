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
// module's one RefreshGroups call per command.
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
// a module no operation ever touched: every step runs the dense per-group
// loop over chip-rows whose zero state senses discharged, without
// materializing a single row.
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
// (bank, set) has been visited, and the bulk idle replay of several windows
// on a quiet engine.
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
	for _, charged := range []bool{true, false} {
		m := testModule()
		if charged {
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < 2000; i++ {
				m.WriteWord(rng.Intn(dram.LineChips), rng.Intn(m.Config().Banks), rng.Intn(m.Config().RowsPerBank),
					rng.Intn(m.Config().WordsPerChipRow()), rng.Uint64()|1, 0)
			}
		}
		e := testEngine(m)
		now := e.RunCycle(0).End
		if !e.CanReplayIdle() {
			t.Fatal("quiet engine cannot replay")
		}
		replay := func() { now = e.ReplayIdleCycles(now, 4).End }
		if n := testing.AllocsPerRun(20, replay); n != 0 {
			t.Errorf("ReplayIdleCycles k=4 charged=%v allocated %.1f times per op", charged, n)
		}
	}
}
