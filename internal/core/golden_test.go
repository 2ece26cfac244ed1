package core

import (
	"testing"

	"zerorefresh/internal/refresh"
	"zerorefresh/internal/workload"
)

// goldenConfig is a 4-rank system small enough to iterate but large enough
// that every rank has real refresh work: 1 MB per rank = 8 banks x 32 rows.
func goldenConfig(t *testing.T) Config {
	t.Helper()
	cfg := DefaultConfig(4 << 20)
	cfg.Ranks = 4
	cfg.CellGroupRows = 8
	cfg.Refresh.RowsPerAR = 4
	return cfg
}

// driveGolden fills a deterministic page pattern, runs windows through
// step(sys), and interleaves writes between windows — the same schedule for
// every system it is given.
func driveGolden(t *testing.T, sys *System, step func() int64) {
	t.Helper()
	prof, ok := workload.ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	pages := sys.Pages()
	for p := 0; p < pages; p += 3 {
		if err := sys.FillPageFromProfile(prof, p, 7, 0); err != nil {
			t.Fatalf("fill page %d: %v", p, err)
		}
	}
	for w := 0; w < 4; w++ {
		// Touch a window-dependent stripe of pages so the access-bit
		// tables have evolving state to merge.
		for p := w; p < pages; p += 5 {
			if err := sys.FillPageFromProfile(prof, p, 7, uint64(w)+1); err != nil {
				t.Fatalf("refill page %d: %v", p, err)
			}
		}
		step()
	}
}

// runWindowSequential is the reference for RunWindow: every rank's window
// executed in rank order on the calling goroutine, folded by the same
// mergeWindow.
func (s *System) runWindowSequential() refresh.CycleStats {
	perRank := make([]refresh.CycleStats, len(s.Ranks))
	for i := range s.Ranks {
		perRank[i] = s.Ranks[i].Engine.RunCycle(s.Clock)
	}
	return s.mergeWindow(perRank)
}

// TestRunWindowGoldenStats is the golden-stats test for the rank-sharded
// execution path: two identically configured and identically driven
// systems, one running its retention windows concurrently across ranks
// (RunWindow) and one sequentially (runWindowSequential), must end with
// bit-identical metrics in every layer — every counter of every rank's
// DRAM, refresh engine and controller, and the shared pipeline.
func TestRunWindowGoldenStats(t *testing.T) {
	par, err := NewSystem(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	seq, err := NewSystem(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	var parWindows, seqWindows []int64
	driveGolden(t, par, func() int64 {
		st := par.RunWindow()
		parWindows = append(parWindows, st.Steps, st.Refreshed, st.Skipped, st.TableRows, int64(st.Start), int64(st.End))
		return st.Refreshed
	})
	driveGolden(t, seq, func() int64 {
		st := seq.runWindowSequential()
		seqWindows = append(seqWindows, st.Steps, st.Refreshed, st.Skipped, st.TableRows, int64(st.Start), int64(st.End))
		return st.Refreshed
	})

	if len(parWindows) != len(seqWindows) {
		t.Fatalf("window count mismatch: %d vs %d", len(parWindows), len(seqWindows))
	}
	for i := range parWindows {
		if parWindows[i] != seqWindows[i] {
			t.Fatalf("per-window stats diverge at element %d: parallel %d, sequential %d", i, parWindows[i], seqWindows[i])
		}
	}

	ps, ss := par.MetricsSnapshot(), seq.MetricsSnapshot()
	if !ps.Equal(ss) {
		t.Fatalf("metric snapshots diverge:\nparallel:\n%s\nsequential:\n%s", ps, ss)
	}
	if got := ps.Counter("core.windows"); got != 4 {
		t.Fatalf("core.windows = %d, want 4", got)
	}

	// The sharded path must also leave the memory itself identical: spot
	// read every rank through both systems.
	for p := 0; p < par.Pages(); p += 7 {
		a, err := par.ReadPageLine(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := seq.ReadPageLine(p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("page %d content diverges between parallel and sequential systems", p)
		}
	}
}

// TestMetricsSnapshotLabels checks the registry wiring of NewSystem: every
// rank's layers appear under its label, the shared pipeline under cpu/.
func TestMetricsSnapshotLabels(t *testing.T) {
	sys, err := NewSystem(goldenConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	if err := sys.FillPageFromProfile(prof, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	sys.RunWindow()
	snap := sys.MetricsSnapshot()
	for _, name := range []string{
		"cpu/transform.ops",
		"rank0/dram.activations",
		"rank0/refresh.steps_considered",
		"rank0/ctrl.lines_written",
		"rank3/dram.refreshes",
		"core.windows",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Fatalf("sample %q missing from system snapshot:\n%s", name, snap)
		}
	}
	if got := snap.Counter("rank0/ctrl.lines_written"); got == 0 {
		t.Fatal("rank0 controller recorded no writes")
	}
	// All traffic went to rank 0's pages; rank 3 must still have refresh
	// activity (windows run on every rank) but no datapath writes.
	if got := snap.Counter("rank3/ctrl.lines_written"); got != 0 {
		t.Fatalf("rank3 controller recorded %d writes, want 0", got)
	}
	if got := snap.Counter("rank3/refresh.steps_considered"); got == 0 {
		t.Fatal("rank3 engine ran no refresh steps")
	}
}
