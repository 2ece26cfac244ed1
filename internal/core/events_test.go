package core

import (
	"reflect"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/workload"
)

// Differential test for the event-driven core: a system driven through
// ScheduleWriteBurst + RunUntil must be observationally identical to a
// twin driven through the dense RunWindow loop — bit-identical cell
// state, metrics counters in every layer, accumulated window statistics,
// clock, and (when tracing) per-shard trace streams — across geometries
// and refresh-policy families, on a schedule sparse enough that the bulk
// idle replay actually engages.

// diffPlan is the shared drive: `windows` retention windows with write
// bursts before the listed windows and datapath reads after the listed
// windows (both sorted ascending).
type diffPlan struct {
	windows int
	bursts  []int
	reads   []int
}

func defaultPlan() diffPlan {
	return diffPlan{windows: 24, bursts: []int{0, 1, 7, 19}, reads: []int{3, 7, 15}}
}

func applyBurst(t *testing.T, sys *System, prof workload.Profile, w int) {
	t.Helper()
	pages := sys.Pages()
	for p := w % 3; p < pages; p += 5 {
		if err := sys.FillPageFromProfile(prof, p, 7, uint64(w)+1); err != nil {
			t.Fatalf("burst %d page %d: %v", w, p, err)
		}
	}
}

func readStripe(t *testing.T, sys *System, w int) [][64]byte {
	t.Helper()
	var out [][64]byte
	for p := w % 5; p < sys.Pages(); p += 7 {
		line, err := sys.ReadPageLine(p, w%4)
		if err != nil {
			t.Fatalf("read window %d page %d: %v", w, p, err)
		}
		out = append(out, line)
	}
	return out
}

// driveDense runs the plan through the dense window loop.
func driveDense(t *testing.T, sys *System, prof workload.Profile, plan diffPlan) (refresh.CycleStats, [][64]byte) {
	t.Helper()
	var acc refresh.CycleStats
	var reads [][64]byte
	bi, ri := 0, 0
	for w := 0; w < plan.windows; w++ {
		if bi < len(plan.bursts) && plan.bursts[bi] == w {
			applyBurst(t, sys, prof, w)
			bi++
		}
		acc.Add(sys.RunWindow())
		if ri < len(plan.reads) && plan.reads[ri] == w {
			reads = append(reads, readStripe(t, sys, w)...)
			ri++
		}
	}
	return acc, reads
}

// driveEvents runs the same plan through the event loop: bursts become
// scheduled events, reads segment the run at the same window boundaries
// the dense twin reads at.
func driveEvents(t *testing.T, sys *System, prof workload.Profile, plan diffPlan) (refresh.CycleStats, [][64]byte) {
	t.Helper()
	tret := sys.DRAM.Config().Timing.TRET
	base := sys.Clock
	for _, w := range plan.bursts {
		w := w
		sys.ScheduleWriteBurst(base+dram.Time(w)*tret, func(dram.Time) {
			applyBurst(t, sys, prof, w)
		})
	}
	var acc refresh.CycleStats
	var reads [][64]byte
	for _, r := range plan.reads {
		acc.Add(sys.RunUntil(base + dram.Time(r+1)*tret))
		reads = append(reads, readStripe(t, sys, r)...)
	}
	acc.Add(sys.RunUntil(base + dram.Time(plan.windows)*tret))
	return acc, reads
}

func compareSystems(t *testing.T, dense, events *System, denseStats, eventStats refresh.CycleStats, denseReads, eventReads [][64]byte) {
	t.Helper()
	if denseStats != eventStats {
		t.Fatalf("window stats diverged:\ndense  %+v\nevents %+v", denseStats, eventStats)
	}
	if dense.Clock != events.Clock {
		t.Fatalf("clocks diverged: dense %d, events %d", dense.Clock, events.Clock)
	}
	ds, es := dense.MetricsSnapshot(), events.MetricsSnapshot()
	if !ds.Equal(es) {
		t.Fatalf("metric snapshots diverged:\ndense:\n%s\nevents:\n%s", ds, es)
	}
	if len(denseReads) != len(eventReads) {
		t.Fatalf("read counts diverged: dense %d, events %d", len(denseReads), len(eventReads))
	}
	for i := range denseReads {
		if denseReads[i] != eventReads[i] {
			t.Fatalf("read %d diverged between dense and event systems", i)
		}
	}
	// Reads mutate counters identically on both sides, so the spot checks
	// come after the snapshot comparison.
	for p := 0; p < dense.Pages(); p += 3 {
		a, err := dense.ReadPageLine(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := events.ReadPageLine(p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("page %d content diverges between dense and event systems", p)
		}
	}
}

func TestEventCoreMatchesDense(t *testing.T) {
	base := func() Config {
		cfg := DefaultConfig(4 << 20)
		cfg.CellGroupRows = 8
		cfg.Refresh.RowsPerAR = 4
		return cfg
	}
	cases := map[string]func() Config{
		"default": base,
		"multirank": func() Config { // second geometry: 4 ranks, sharded windows
			cfg := base()
			cfg.Ranks = 4
			return cfg
		},
		"rowbytes-2k-normal": func() Config { // third geometry: 2 KB rows, 64 ms window
			cfg := DefaultConfig(2 << 20)
			cfg.RowBytes = 2048
			cfg.CellGroupRows = 8
			cfg.Refresh.RowsPerAR = 4
			cfg.Extended = false
			return cfg
		},
		"per-chip-status": func() Config { // bulk replay must stand down, scheduler still exact
			cfg := base()
			cfg.Refresh.PerChipStatus = true
			return cfg
		},
		"all-bank": func() Config {
			cfg := base()
			cfg.Refresh.AllBank = true
			return cfg
		},
		"conventional": func() Config { // no skipping at all
			cfg := base()
			cfg.Refresh.Skip = false
			return cfg
		},
		"sram-status-spared": func() Config {
			cfg := base()
			cfg.Refresh.StatusInDRAM = false
			cfg.SparedRowFraction = 0.05
			return cfg
		},
	}
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			dense, err := NewSystem(mk())
			if err != nil {
				t.Fatal(err)
			}
			events, err := NewSystem(mk())
			if err != nil {
				t.Fatal(err)
			}
			plan := defaultPlan()
			ds, dr := driveDense(t, dense, prof, plan)
			es, er := driveEvents(t, events, prof, plan)
			compareSystems(t, dense, events, ds, es, dr, er)

			st := events.EventStats()
			if st.Windows != int64(plan.windows) {
				t.Fatalf("event loop ran %d windows, want %d", st.Windows, plan.windows)
			}
			if name == "default" && st.Replayed == 0 {
				t.Fatal("bulk idle replay never engaged on the default config")
			}
			if name == "per-chip-status" && st.Replayed != 0 {
				t.Fatalf("bulk idle replay engaged %d windows on a per-chip-status engine", st.Replayed)
			}
		})
	}
}

// TestEventCoreMatchesDenseTraced pins the per-shard trace streams: with
// tracing on, the bulk replay stands down and the event loop must emit
// exactly the dense loop's events, shard by shard, in order.
func TestEventCoreMatchesDenseTraced(t *testing.T) {
	mk := func(tr *trace.Tracer) Config {
		cfg := DefaultConfig(2 << 20)
		cfg.Ranks = 2
		cfg.CellGroupRows = 8
		cfg.Refresh.RowsPerAR = 4
		cfg.Trace = tr
		return cfg
	}
	dtr, etr := trace.New(1<<20), trace.New(1<<20)
	dense, err := NewSystem(mk(dtr))
	if err != nil {
		t.Fatal(err)
	}
	events, err := NewSystem(mk(etr))
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	plan := diffPlan{windows: 8, bursts: []int{0, 3}, reads: []int{5}}
	ds, dr := driveDense(t, dense, prof, plan)
	es, er := driveEvents(t, events, prof, plan)
	compareSystems(t, dense, events, ds, es, dr, er)
	if st := events.EventStats(); st.Replayed != 0 {
		t.Fatalf("bulk idle replay engaged %d windows on a traced system", st.Replayed)
	}
	if a, b := dtr.Dropped(), etr.Dropped(); a != 0 || b != 0 {
		t.Fatalf("trace buffers overflowed (dense %d, events %d dropped): grow the test buffers", a, b)
	}
	dsh, esh := dtr.Shards(), etr.Shards()
	if len(dsh) != len(esh) {
		t.Fatalf("shard counts diverged: dense %d, events %d", len(dsh), len(esh))
	}
	for i := range dsh {
		if dsh[i].Label() != esh[i].Label() {
			t.Fatalf("shard %d labels diverged: %q vs %q", i, dsh[i].Label(), esh[i].Label())
		}
		da, ea := dsh[i].Events(), esh[i].Events()
		if len(da) != len(ea) {
			t.Fatalf("shard %q event counts diverged: dense %d, events %d", dsh[i].Label(), len(da), len(ea))
		}
		for j := range da {
			if da[j] != ea[j] {
				t.Fatalf("shard %q event %d diverged:\ndense  %+v\nevents %+v", dsh[i].Label(), j, da[j], ea[j])
			}
		}
	}
}

// TestRunEventsAndScheduledProbes covers the auxiliary event kinds beside
// windows and bursts: self-re-arming retention probes pop in deterministic
// order between windows, see a healthy system, and leave the clock on a
// window boundary.
func TestRunEventsAndScheduledProbes(t *testing.T) {
	cfg := DefaultConfig(2 << 20)
	cfg.CellGroupRows = 8
	cfg.Refresh.RowsPerAR = 4
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	if err := sys.FillPageFromProfile(prof, 0, 7, 0); err != nil {
		t.Fatal(err)
	}
	tret := sys.DRAM.Config().Timing.TRET

	var probes []dram.Time
	sys.ScheduleRetentionChecks(tret/2, 2*tret, func(now dram.Time, violations int) {
		if violations != 0 {
			t.Fatalf("probe at %d saw %d retention violations", now, violations)
		}
		probes = append(probes, now)
	})
	st := sys.RunUntil(4 * tret)
	if st.Steps == 0 {
		t.Fatal("RunUntil ran no refresh work")
	}
	if sys.Clock != 4*tret {
		t.Fatalf("clock %d, want the window boundary %d", sys.Clock, 4*tret)
	}
	// Windows are atomic: the probe due at tret/2 is delivered when
	// window 0 ends, and re-arms 2·tret after its delivery.
	if want := []dram.Time{tret, 3 * tret}; !reflect.DeepEqual(probes, want) {
		t.Fatalf("probes fired at %v, want %v", probes, want)
	}
	// A deadline exists while rows hold charge, and lies within TRET of
	// the last recharge.
	if dl, ok := sys.DRAM.NextRetentionDeadline(); !ok || dl > sys.Clock+tret {
		t.Fatalf("NextRetentionDeadline = %d,%v with clock %d", dl, ok, sys.Clock)
	}
}
