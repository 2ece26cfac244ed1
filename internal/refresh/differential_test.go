package refresh

import (
	"math/rand"
	"reflect"
	"testing"

	"zerorefresh/internal/attr"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/trace"
)

// Differential tests for the command-sized refresh calls: an engine on a
// *dram.Module, whose RefreshGroups call serves every refreshed diagonal
// group of an AR command at once, is driven against a twin on
// scalarBackend, the per-chip oracle, under identical write traffic with
// spared rows, per-chip-status and all-bank variants. Every AR result,
// counter, trace event and module state must match. A traced engine passes
// one group per call, so the untraced drive is what covers the
// command-sized calls.

// scalarBackend is the per-chip oracle behind the backend contract: it
// wraps a *dram.Module and refreshes each diagonal group with one Refresh +
// IsSpared call per chip, and replays idle windows as one such loop per
// window — the loops the batched calls must reproduce.
type scalarBackend struct{ *dram.Module }

func (b scalarBackend) RefreshGroups(bank int, groups [][dram.LineChips]int, now dram.Time, masks []uint16) {
	for i, rows := range groups {
		var mask uint16
		for chip, row := range rows {
			if b.Refresh(chip, bank, row, now) && !b.IsSpared(row) {
				mask |= 1 << chip
			}
		}
		if masks != nil {
			masks[i] = mask
		}
	}
}

func (b scalarBackend) ReplayRefreshGroups(bank int, groups [][dram.LineChips]int, first, period dram.Time, windows int64) {
	for w := int64(0); w < windows; w++ {
		b.RefreshGroups(bank, groups, first+dram.Time(w)*period, nil)
	}
}

// diffEngines builds the batched engine and its scalar twin over modules
// with every sparedEvery-th row spared, traced or not. A traced twin's
// module and engine share one shard, as core.NewSystem wires a rank, so
// the comparison sees their events in emission order.
func diffEngines(t *testing.T, cfg Config, sparedEvery int, traced bool) (batched, scalar *Engine, mods [2]*dram.Module, trs [2]*trace.Tracer) {
	t.Helper()
	for i := range mods {
		mods[i] = testModule()
		if sparedEvery > 0 {
			for r := 0; r < mods[i].Config().RowsPerBank; r += sparedEvery {
				mods[i].MarkSpared(r)
			}
		}
	}
	batched, scalar = NewEngine(mods[0], cfg), NewEngine(scalarBackend{mods[1]}, cfg)
	if traced {
		for i, e := range []*Engine{batched, scalar} {
			trs[i] = trace.New(1 << 17)
			sh := trs[i].NewShard("rank")
			mods[i].SetTracer(sh)
			e.SetTracer(sh)
		}
	}
	return batched, scalar, mods, trs
}

// stepCases are the engine variants the step differential tests cover.
var stepCases = map[string]Config{
	"default":      {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true},
	"unstaggered":  {Skip: true, RowsPerAR: 32, StatusInDRAM: true},
	"per-chip":     {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true, PerChipStatus: true},
	"all-bank":     {Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true, AllBank: true},
	"conventional": {Skip: false, RowsPerAR: 32, Stagger: true},
}

// driveStepTwins runs six windows of identical write traffic on both
// engines, skipping one window so charged unwritten rows decay, then — when
// the engines can — an idle replay of five windows, and requires identical
// cycle stats, engine and module state, counters, histograms and (traced)
// events.
func driveStepTwins(t *testing.T, cfg Config, traced bool) {
	batched, scalar, mods, trs := diffEngines(t, cfg, 29, traced)
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
	// The replay takes the bulk path only untraced and rank-synchronous;
	// otherwise both twins fall back to dense windows.
	if got, want := batched.CanReplayIdle(), !traced && !cfg.PerChipStatus; got != want {
		t.Fatalf("CanReplayIdle = %v, want %v", got, want)
	}
	if a, b := batched.ReplayIdleCycles(now, 5), scalar.ReplayIdleCycles(now, 5); a != b {
		t.Fatalf("idle replay diverged:\nbatched %+v\nscalar  %+v", a, b)
	}
	if a, b := batched.Stats(), scalar.Stats(); a != b {
		t.Fatalf("engine stats diverged:\nbatched %+v\nscalar  %+v", a, b)
	}
	if a, b := batched.Metrics().Snapshot(), scalar.Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("engine metrics diverged:\nbatched %+v\nscalar  %+v", a, b)
	}
	if !reflect.DeepEqual(batched.status, scalar.status) || !reflect.DeepEqual(batched.skipRun, scalar.skipRun) ||
		!reflect.DeepEqual(batched.lastSetRefreshed, scalar.lastSetRefreshed) {
		t.Fatal("status tables, skip runs or per-set refreshed counts diverged")
	}
	if a, b := mods[0].Stats(), mods[1].Stats(); a != b {
		t.Fatalf("module stats diverged:\nbatched %+v\nscalar  %+v", a, b)
	}
	if mods[0].Stats().DecayEvents == 0 {
		t.Fatal("no chip-row decayed; the expire path went untested")
	}
	if a, b := mods[0].Metrics().Snapshot(), mods[1].Metrics().Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("module metrics diverged:\nbatched %+v\nscalar  %+v", a, b)
	}
	if traced {
		attr.MustMatch(t, "batched vs scalar", trs[0].Events(), trs[1].Events())
	}
	for chip := 0; chip < dram.LineChips; chip++ {
		for bank := 0; bank < dcfg.Banks; bank++ {
			for row := 0; row < dcfg.RowsPerBank; row++ {
				if a, b := mods[0].ChargedCellCount(chip, bank, row), mods[1].ChargedCellCount(chip, bank, row); a != b {
					t.Fatalf("charged cells diverged at (%d,%d,%d): %d vs %d", chip, bank, row, a, b)
				}
				if a, b := mods[0].EverDecayed(chip, bank, row), mods[1].EverDecayed(chip, bank, row); a != b {
					t.Fatalf("decay flags diverged at (%d,%d,%d): %v vs %v", chip, bank, row, a, b)
				}
			}
		}
	}
}

// TestRefreshGroupStepMatchesScalar drives traced twins, whose engines pass
// one group per RefreshGroups call so each step's refresh-issued event
// follows its own module events.
func TestRefreshGroupStepMatchesScalar(t *testing.T) {
	for name, cfg := range stepCases {
		t.Run(name, func(t *testing.T) { driveStepTwins(t, cfg, true) })
	}
}

// TestRefreshGroupsUntracedMatchScalar drives untraced twins, whose engines
// pass each AR command's refreshed steps in one RefreshGroups call and each
// idle-replayed command in one ReplayRefreshGroups call.
func TestRefreshGroupsUntracedMatchScalar(t *testing.T) {
	for name, cfg := range stepCases {
		t.Run(name, func(t *testing.T) { driveStepTwins(t, cfg, false) })
	}
}

// groupCounter is a backend that records the most diagonal groups one
// refresh call carried.
type groupCounter struct {
	*dram.Module
	most int
}

func (c *groupCounter) RefreshGroups(bank int, groups [][dram.LineChips]int, now dram.Time, masks []uint16) {
	c.most = max(c.most, len(groups))
	c.Module.RefreshGroups(bank, groups, now, masks)
}

func (c *groupCounter) ReplayRefreshGroups(bank int, groups [][dram.LineChips]int, first, period dram.Time, windows int64) {
	c.most = max(c.most, len(groups))
	c.Module.ReplayRefreshGroups(bank, groups, first, period, windows)
}

// TestTracedRefreshCallsCarryOneGroup pins when the engine batches: an
// untraced engine hands the backend every step an AR command refreshes in
// one call, on the learning window's access-bit path and on the status
// path, while a traced engine — whose module shares its shard in a
// system — passes one group per call, so each step's refresh-issued event
// follows the retention violations of its own refresh. The twins above
// cannot see this: both run the same engine code.
func TestTracedRefreshCallsCarryOneGroup(t *testing.T) {
	for _, traced := range []bool{false, true} {
		m := testModule()
		c := &groupCounter{Module: m}
		cfg := DefaultConfig()
		cfg.RowsPerAR = 32
		e := NewEngine(c, cfg)
		if traced {
			sh := trace.New(1 << 16).NewShard("rank")
			m.SetTracer(sh)
			e.SetTracer(sh)
		}
		for row := 0; row < e.Config().RowsPerAR; row++ {
			m.WriteWord(0, 0, row, 0, 1, 0) // charged: every step of bank 0's first command refreshes
		}
		want := e.Config().RowsPerAR
		if traced {
			want = 1
		}
		tret := m.Config().Timing.TRET
		for cycle, path := range []string{"access-bit", "status"} {
			c.most = 0
			e.RunCycle(dram.Time(cycle) * tret)
			if c.most != want {
				t.Errorf("traced=%v %s path: a refresh call carried up to %d groups, want %d", traced, path, c.most, want)
			}
		}
	}
}

// TestUntracedSparseMatchesScalar drives the untraced batched engine
// against the untraced scalar twin, over traffic sparse enough that most
// auto-refresh commands cover only never-touched rows. Counters, statuses
// and module state must be indistinguishable from the per-chip sweep.
func TestUntracedSparseMatchesScalar(t *testing.T) {
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
				// Sparse writes: most AR commands cover only untouched
				// rows, a few cover live ones.
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
