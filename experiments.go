package zerorefresh

import "zerorefresh/internal/sim"

// Experiment harness: every table and figure of the paper's evaluation
// (Section VI), the extensions and the ablations are entries of one
// catalogue, the one cmd/zrsim runs. Each entry returns a Table whose rows
// and columns mirror the published plot; EXPERIMENTS.md records
// paper-vs-measured values for all of them.

type (
	// ExperimentOptions scales an experiment run.
	ExperimentOptions = sim.Options
	// Experiment is one catalogue entry: an id (zrsim -exp) and its runner.
	Experiment = sim.Experiment
	// Table is a generic experiment result.
	Table = sim.Table
	// ScenarioResult is one (benchmark, allocation) refresh data point.
	ScenarioResult = sim.ScenarioResult
)

// Experiments returns the experiment catalogue in zrsim -exp all order.
func Experiments() []Experiment { return sim.Experiments() }

// RunScenario runs one benchmark under one allocated-memory fraction.
func RunScenario(o ExperimentOptions, prof Profile, allocFrac float64) (ScenarioResult, error) {
	return sim.RunScenario(o, prof, allocFrac)
}
