package zerorefresh

import "zerorefresh/internal/sim"

// Experiment harness: one entry point per table/figure of the paper's
// evaluation (Section VI). Each returns a Table whose rows and columns
// mirror the published plot; EXPERIMENTS.md records paper-vs-measured
// values for all of them.

type (
	// ExperimentOptions scales and ablates an experiment run.
	ExperimentOptions = sim.Options
	// Table is a generic experiment result.
	Table = sim.Table
	// ScenarioResult is one (benchmark, allocation) refresh data point.
	ScenarioResult = sim.ScenarioResult
	// IPCResult is one Figure 17 data point.
	IPCResult = sim.IPCResult
)

// RunScenario runs one benchmark under one allocated-memory fraction.
func RunScenario(o ExperimentOptions, prof Profile, allocFrac float64) (ScenarioResult, error) {
	return sim.RunScenario(o, prof, allocFrac)
}

// RunIPC measures one benchmark's refresh-interference IPC (Figure 17).
func RunIPC(o ExperimentOptions, prof Profile) (IPCResult, error) {
	return sim.RunIPC(o, prof)
}

// RunTable1 regenerates Table I (trace mean utilizations).
func RunTable1(seed uint64, samples int) *Table { return sim.RunTable1(seed, samples) }

// RunTable2 renders the Table II system configuration.
func RunTable2() string { return sim.RunTable2() }

// RunFig4 regenerates Figure 4 (refresh power share vs density).
func RunFig4() *Table { return sim.RunFig4() }

// RunFig5 regenerates Figure 5 (trace utilization CDFs).
func RunFig5() *Table { return sim.RunFig5() }

// RunFig6 regenerates Figure 6 (zero content at 1KB/1B granularity).
func RunFig6(o ExperimentOptions) *Table { return sim.RunFig6(o) }

// RunFig14 regenerates Figure 14 (normalized refresh, four scenarios).
func RunFig14(o ExperimentOptions) (*Table, error) { return sim.RunFig14(o) }

// RunFig15 regenerates Figure 15 (normalized refresh energy).
func RunFig15(o ExperimentOptions) (*Table, error) { return sim.RunFig15(o) }

// RunFig16 regenerates Figure 16 (normal vs extended temperature).
func RunFig16(o ExperimentOptions) (*Table, error) { return sim.RunFig16(o) }

// RunFig17 regenerates Figure 17 (normalized IPC).
func RunFig17(o ExperimentOptions) (*Table, error) { return sim.RunFig17(o) }

// RunFig18 regenerates Figure 18 (row-buffer-size sensitivity).
func RunFig18(o ExperimentOptions) (*Table, error) { return sim.RunFig18(o) }

// RunFig19 regenerates Figure 19 (Smart Refresh vs ZERO-REFRESH scaling).
func RunFig19(o ExperimentOptions) (*Table, error) { return sim.RunFig19(o) }

// RunComparison is an extension experiment: access-aware vs
// retention-aware vs value-aware refresh skipping across capacities,
// including the VRT safety hazard of static retention profiles.
func RunComparison(o ExperimentOptions) (*Table, error) { return sim.RunComparison(o) }

// RunLongHorizon is an extension experiment built on the event-driven
// core: thousands of retention windows with sparse write bursts, idle
// spans fast-forwarded through bulk replay — a horizon the dense window
// loop cannot cover in comparable wall-clock time.
func RunLongHorizon(o ExperimentOptions) (*Table, error) { return sim.RunLongHorizon(o) }

// RunCmdLevel is an extension experiment validating the refresh
// interference results on the command-level DDR engine (ACT/RD/WR/PRE/REF
// with Table II timing constraints).
func RunCmdLevel(o ExperimentOptions) (*Table, error) { return sim.RunCmdLevelTable(o) }

// RunPowerBreakdown is a diagnostic extension of Figure 4: the full DRAM
// power budget per benchmark under conventional vs ZERO-REFRESH refresh.
func RunPowerBreakdown(o ExperimentOptions) (*Table, error) { return sim.RunPowerBreakdown(o) }

// RunSmoke runs the fixed-seed observability smoke scenario: one benchmark
// end to end with epoch capture (and, when o.Trace is set, typed events
// from every layer), plus a Figure 17 closed-loop run that populates the
// demand-miss latency histogram. Returns the unified metrics table and the
// per-window epochs.
func RunSmoke(o ExperimentOptions) (*Table, []Epoch, error) { return sim.RunSmoke(o) }

// RunTimeline runs the smoke scenario and renders the per-window timeline
// report (refresh work, skip rate, activity deltas).
func RunTimeline(o ExperimentOptions) (*Table, []Epoch, error) { return sim.RunTimeline(o) }

// TimelineCSV renders captured epochs as a deterministic CSV time-series.
func TimelineCSV(epochs []Epoch) string { return sim.TimelineCSV(epochs) }

// TimelineJSON renders captured epochs as a deterministic JSON array.
func TimelineJSON(epochs []Epoch) string { return sim.TimelineJSON(epochs) }
