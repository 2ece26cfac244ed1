package sim

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/memctrl"
	"zerorefresh/internal/workload"
)

// Command-level validation experiment (extension): replay each benchmark's
// request stream — with explicit row addresses — through the command-level
// DDR engine under the conventional refresh schedule and under the
// ZERO-REFRESH schedule learned by the content simulation. Unlike the
// queue models, row-buffer hits, conflicts, and refresh-induced row
// closures all emerge from command interactions, cross-checking the
// Figure 17 machinery at a lower level.

// CmdLevelResult is one benchmark's command-level comparison.
type CmdLevelResult struct {
	Benchmark string
	// Mean request latency (ns) under each schedule.
	ConvLatency float64
	ZeroLatency float64
	// Row-hit rates observed under each schedule (skipping preserves
	// open rows).
	ConvHitRate float64
	ZeroHitRate float64
	// Refresh commands executed per schedule.
	ConvRefreshes int64
	ZeroRefreshes int64
	// PauseLatency is the conventional schedule's latency with refresh
	// pausing (Nair et al.) enabled — the alternative mitigation the
	// paper's related work discusses.
	PauseLatency float64
}

// RunCmdLevel measures one benchmark.
func RunCmdLevel(o Options, prof workload.Profile) (CmdLevelResult, error) {
	o = o.withDefaults()
	res := CmdLevelResult{Benchmark: prof.Name}

	// Learn the benchmark's steady-state skip schedule.
	sys, zeroSched, err := steadyStateSchedule(o, prof)
	if err != nil {
		return res, err
	}
	dcfg := sys.DRAM.Config()

	// Replay one identical stream under both schedules. The offered load
	// is sized to ~25% of aggregate bank capacity so the open-loop replay
	// stays out of saturation even for low-locality streams whose
	// conflicts cost ~65 ns per request.
	horizon := dram.Time(2 * dram.Millisecond)
	rate := 0.25 * float64(dcfg.Banks) / 40.0
	reqs := prof.GenerateCmdRequests(o.Seed, rate, horizon, dcfg.Banks, dcfg.RowsPerBank)

	run := func(sched memctrl.RefreshSchedule, pause bool) memctrl.CmdStats {
		eng := memctrl.NewCmdScheduler(memctrl.CmdConfig{
			Timing:       dcfg.Timing,
			Banks:        dcfg.Banks,
			ARInterval:   dcfg.Timing.TRET / paperARs,
			TRFCpb:       dram.Time(PerfTRFCns),
			Sched:        sched,
			PauseRefresh: pause,
		})
		return eng.Run(reqs)
	}
	conv := run(memctrl.ConstantSchedule{Busy: dram.Time(PerfTRFCns)}, false)
	zero := run(zeroSched, false)
	paused := run(memctrl.ConstantSchedule{Busy: dram.Time(PerfTRFCns)}, true)
	res.PauseLatency = paused.AvgLatency()

	res.ConvLatency = conv.AvgLatency()
	res.ZeroLatency = zero.AvgLatency()
	if conv.Requests > 0 {
		res.ConvHitRate = float64(conv.RowHits) / float64(conv.Requests)
		res.ZeroHitRate = float64(zero.RowHits) / float64(zero.Requests)
	}
	res.ConvRefreshes = conv.Refreshes
	res.ZeroRefreshes = zero.Refreshes
	return res, nil
}

// RunCmdLevelTable runs the command-level comparison for the configured
// benchmarks.
func RunCmdLevelTable(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Extension: command-level validation (latency ns, row-hit rate)",
		Columns: []string{"conv lat", "ZR lat", "pause lat", "conv hit", "ZR hit"},
		Note:    "row hits and refresh stalls emerge from ACT/RD/WR/PRE/REF interactions; 'pause lat' is conventional refresh with pausing (Nair et al.)",
	}
	rows := make([]CmdLevelResult, len(o.Benchmarks))
	err := forEach(o, len(o.Benchmarks), func(i int, o Options) error {
		r, err := RunCmdLevel(o, o.Benchmarks[i])
		if err != nil {
			return err
		}
		rows[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, prof := range o.Benchmarks {
		r := rows[i]
		t.AddRow(prof.Name, r.ConvLatency, r.ZeroLatency, r.PauseLatency, r.ConvHitRate, r.ZeroHitRate)
	}
	t.AddMeanRow()
	return t, nil
}
