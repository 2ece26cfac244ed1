package refresh

import (
	"math/rand"
	"reflect"
	"testing"

	"zerorefresh/internal/attr"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/trace"
)

// Differential test for the batched refresh step: an engine on a
// *dram.Module, whose RefreshGroup and span calls serve a diagonal group or
// a whole command at once, is driven against a twin on scalarBackend, the
// per-chip oracle, under identical write traffic with spared rows,
// per-chip-status and all-bank variants. Every AR result, counter, trace
// event and module state must match.

// scalarBackend is the per-chip oracle behind the backend contract: it
// wraps a *dram.Module, refreshes a diagonal group with one Refresh +
// IsSpared call per chip, and never takes the span fast path, so an engine
// on it runs the per-step sweep the batched calls must reproduce.
type scalarBackend struct{ *dram.Module }

func (b scalarBackend) RefreshGroup(bank int, rows [dram.LineChips]int, now dram.Time) uint16 {
	var mask uint16
	for chip, row := range rows {
		if b.Refresh(chip, bank, row, now) && !b.IsSpared(row) {
			mask |= 1 << chip
		}
	}
	return mask
}

func (scalarBackend) RefreshSpanDischarged(bank, lo, hi, groups int) bool { return false }

func diffEngines(t *testing.T, cfg Config, sparedEvery int) (batched, scalar *Engine, mods [2]*dram.Module, trs [2]*trace.Tracer) {
	t.Helper()
	for i := range mods {
		mods[i] = testModule()
		trs[i] = trace.New(1 << 17)
		mods[i].SetTracer(trs[i].NewShard("rank"))
		if sparedEvery > 0 {
			for r := 0; r < mods[i].Config().RowsPerBank; r += sparedEvery {
				mods[i].MarkSpared(r)
			}
		}
	}
	batched, scalar = NewEngine(mods[0], cfg), NewEngine(scalarBackend{mods[1]}, cfg)
	batched.SetTracer(trs[0].NewShard("refresh"))
	scalar.SetTracer(trs[1].NewShard("refresh"))
	return batched, scalar, mods, trs
}

func TestRefreshGroupStepMatchesScalar(t *testing.T) {
	cases := map[string]Config{
		"default":      {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true},
		"unstaggered":  {Skip: true, RowsPerAR: 32, StatusInDRAM: true},
		"per-chip":     {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true, PerChipStatus: true},
		"all-bank":     {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true, AllBank: true},
		"conventional": {Skip: false, RowsPerAR: 32, Stagger: true},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			batched, scalar, mods, trs := diffEngines(t, cfg, 29)
			dcfg := mods[0].Config()
			tret := dcfg.Timing.TRET
			rng := rand.New(rand.NewSource(23))
			now := dram.Time(0)
			for cycle := 0; cycle < 6; cycle++ {
				// Identical write traffic, notified to both engines.
				for i := 0; i < 40; i++ {
					bank := rng.Intn(dcfg.Banks)
					row := rng.Intn(dcfg.RowsPerBank)
					word := rng.Intn(dcfg.WordsPerChipRow())
					chip := rng.Intn(dram.LineChips)
					v := rng.Uint64()
					if rng.Intn(3) == 0 {
						v = dcfg.CellTypeOf(row).DischargedWord()
					}
					mods[0].WriteWord(chip, bank, row, word, v, now)
					mods[1].WriteWord(chip, bank, row, word, v, now)
					batched.NoteWrite(bank, row)
					scalar.NoteWrite(bank, row)
				}
				if cycle == 3 {
					// Skip a window so charged unwritten rows decay and
					// the batched inline-expire path fires.
					now += tret
				}
				a, b := batched.RunCycle(now), scalar.RunCycle(now)
				if a != b {
					t.Fatalf("cycle %d stats diverged:\nbatched %+v\nscalar  %+v", cycle, a, b)
				}
				now = a.End + tret/dram.Time(8)
			}
			if a, b := batched.Stats(), scalar.Stats(); a != b {
				t.Fatalf("engine stats diverged:\nbatched %+v\nscalar  %+v", a, b)
			}
			if a, b := batched.Metrics().Snapshot(), scalar.Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("engine metrics diverged:\nbatched %+v\nscalar  %+v", a, b)
			}
			if a, b := mods[0].Stats(), mods[1].Stats(); a != b {
				t.Fatalf("module stats diverged:\nbatched %+v\nscalar  %+v", a, b)
			}
			if a, b := mods[0].Metrics().Snapshot(), mods[1].Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("module metrics diverged:\nbatched %+v\nscalar  %+v", a, b)
			}
			attr.MustMatch(t, "batched vs scalar", trs[0].Events(), trs[1].Events())
			for chip := 0; chip < dram.LineChips; chip++ {
				for bank := 0; bank < dcfg.Banks; bank++ {
					for row := 0; row < dcfg.RowsPerBank; row++ {
						if a, b := mods[0].ChargedCellCount(chip, bank, row), mods[1].ChargedCellCount(chip, bank, row); a != b {
							t.Fatalf("charged cells diverged at (%d,%d,%d): %d vs %d", chip, bank, row, a, b)
						}
					}
				}
			}
		})
	}
}

// TestRefreshSpanFastMatchesScalar drives the untraced batched engine —
// the only configuration in which the whole-command discharged-span fast
// path may engage — against the untraced scalar twin, over traffic sparse
// enough that most auto-refresh commands cover fully discharged spans.
// Counters, statuses and module state must be indistinguishable from the
// per-step sweep.
func TestRefreshSpanFastMatchesScalar(t *testing.T) {
	for name, cfg := range map[string]Config{
		"staggered":   {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true},
		"unstaggered": {Skip: true, RowsPerAR: 32, StatusInDRAM: true},
	} {
		t.Run(name, func(t *testing.T) {
			mods := [2]*dram.Module{testModule(), testModule()}
			for i := range mods {
				for r := 0; r < mods[i].Config().RowsPerBank; r += 37 {
					mods[i].MarkSpared(r)
				}
			}
			batched, scalar := NewEngine(mods[0], cfg), NewEngine(scalarBackend{mods[1]}, cfg)
			dcfg := mods[0].Config()
			tret := dcfg.Timing.TRET
			rng := rand.New(rand.NewSource(71))
			now := dram.Time(0)
			for cycle := 0; cycle < 5; cycle++ {
				// Sparse writes: most AR commands keep a fully discharged
				// span, a few get live rows and fall back per-step.
				for i := 0; i < 6; i++ {
					bank := rng.Intn(dcfg.Banks)
					row := rng.Intn(dcfg.RowsPerBank)
					word := rng.Intn(dcfg.WordsPerChipRow())
					chip := rng.Intn(dram.LineChips)
					v := rng.Uint64()
					mods[0].WriteWord(chip, bank, row, word, v, now)
					mods[1].WriteWord(chip, bank, row, word, v, now)
					batched.NoteWrite(bank, row)
					scalar.NoteWrite(bank, row)
				}
				a, b := batched.RunCycle(now), scalar.RunCycle(now)
				if a != b {
					t.Fatalf("cycle %d stats diverged:\nbatched %+v\nscalar  %+v", cycle, a, b)
				}
				now = a.End + tret/dram.Time(8)
			}
			if a, b := batched.Stats(), scalar.Stats(); a != b {
				t.Fatalf("engine stats diverged:\nbatched %+v\nscalar  %+v", a, b)
			}
			if a, b := batched.Metrics().Snapshot(), scalar.Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("engine metrics diverged:\nbatched %+v\nscalar  %+v", a, b)
			}
			if a, b := mods[0].Metrics().Snapshot(), mods[1].Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("module metrics diverged:\nbatched %+v\nscalar  %+v", a, b)
			}
			for bank := range batched.status {
				if !reflect.DeepEqual(batched.status[bank], scalar.status[bank]) {
					t.Fatalf("status table diverged in bank %d", bank)
				}
				if !reflect.DeepEqual(batched.skipRun[bank], scalar.skipRun[bank]) {
					t.Fatalf("skip runs diverged in bank %d", bank)
				}
			}
			for chip := 0; chip < dram.LineChips; chip++ {
				for bank := 0; bank < dcfg.Banks; bank++ {
					for row := 0; row < dcfg.RowsPerBank; row++ {
						if a, b := mods[0].ChargedCellCount(chip, bank, row), mods[1].ChargedCellCount(chip, bank, row); a != b {
							t.Fatalf("charged cells diverged at (%d,%d,%d): %d vs %d", chip, bank, row, a, b)
						}
					}
				}
			}
		})
	}
}
