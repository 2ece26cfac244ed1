package main

// metricDef declares one metric the benchmark prints.
type metricDef struct {
	name, unit, better string
	// moves names, for a per-layer metric, the end-to-end metrics and
	// workloads ("metric@workload") a change to its layer should move.
	moves []string
}

// endToEnd are the metrics a timed run prints: host time and host memory
// of one experiment repetition, and the share of repetitions whose output
// was correct.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "cpu_s", unit: "s", better: "lower"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "alloc_mb", unit: "MB", better: "lower"},
	{name: "mem_mb", unit: "MB", better: "lower"},
	{name: "pass_frac", unit: "ratio", better: "higher"},
}

// modules are the simulator packages the traced run executes; each gets a
// <module>.share metric. "bench" is this package's own code (span
// bookkeeping, the mirrors' glue) and "runtime" every sample with no
// frame of the repository on its stack (garbage collection, scheduling).
var modules = []string{
	"workload", "rng", "transform", "memctrl", "dram", "refresh", "core",
	"engine", "ostrace", "metrics", "trace", "energy", "cpu", "sim",
	"bench", "runtime",
}

// shareMoves says which end-to-end metric each module's share should move.
var shareMoves = map[string][]string{
	"workload":  {"wall_s@fig14", "setup_s@fig14"},
	"rng":       {"wall_s@fig14", "setup_s@fig14"},
	"transform": {"wall_s@fig14"},
	"memctrl":   {"wall_s@fig14", "wall_s@fig17"},
	"dram":      {"wall_s@fig14", "mem_mb@fig14"},
	"refresh":   {"wall_s@longhorizon"},
	"core":      {"wall_s@longhorizon"},
	"engine":    {"wall_s@longhorizon"},
	"ostrace":   {"setup_s@fig14"},
	"metrics":   {"wall_s@longhorizon"},
	"trace":     {"wall_s@traced"},
	"energy":    {"wall_s@fig14"},
	"cpu":       {"wall_s@fig17"},
	"sim":       {"wall_s@fig14"},
	"bench":     {"cpu_s@fig14"},
	"runtime":   {"alloc_mb@traced"},
}

// perLayer are the metrics a traced run prints.
var perLayer = func() []metricDef {
	allSetup := []string{"setup_s@fig14", "setup_s@longhorizon", "setup_s@fig17", "setup_s@traced",
		"mem_mb@fig14", "mem_mb@longhorizon", "mem_mb@fig17", "mem_mb@traced"}
	tracing := []string{"wall_s@traced", "alloc_mb@traced"}
	defs := []metricDef{
		{"workload.line_s", "s", "lower", []string{"wall_s@fig14", "setup_s@fig14"}},
		{"workload.lines", "count", "lower", []string{"wall_s@fig14"}},
		{"memctrl.lines_written", "count", "lower", []string{"wall_s@fig14"}},
		{"transform.ops", "count", "lower", []string{"wall_s@fig14"}},
		{"core.newsystem_s", "s", "lower", allSetup},
		{"ostrace.alloc_s", "s", "lower", []string{"setup_s@fig14"}},
		{"memctrl.write_s", "s", "lower", []string{"wall_s@fig14", "wall_s@longhorizon"}},
		{"memctrl.write_ns_per_line", "ns", "lower", []string{"wall_s@fig14", "wall_s@longhorizon"}},
		{"memctrl.closedloop_s", "s", "lower", []string{"wall_s@fig17"}},
		{"dram.materialized_rows", "count", "lower", []string{"mem_mb@fig14", "alloc_mb@fig14"}},
		{"dram.arena_reserved_mb", "MB", "lower", []string{"mem_mb@fig14", "alloc_mb@fig14"}},
		{"dram.cow_hits", "count", "higher", []string{"mem_mb@fig14", "alloc_mb@fig14"}},
		{"dram.probe_s", "s", "lower", []string{"wall_s@longhorizon"}},
		{"refresh.window_s", "s", "lower", []string{"wall_s@fig14"}},
		{"refresh.steps_considered", "count", "lower", []string{"wall_s@fig14"}},
		{"refresh.skip_frac", "ratio", "higher", []string{"wall_s@fig14"}},
		{"core.events_s", "s", "lower", []string{"wall_s@longhorizon"}},
		{"core.events_popped", "count", "lower", []string{"wall_s@longhorizon"}},
		{"core.replayed_frac", "ratio", "higher", []string{"wall_s@longhorizon"}},
		{"trace.events", "count", "lower", tracing},
		{"trace.dropped", "count", "lower", tracing},
		{"trace.export_s", "s", "lower", tracing},
		{"trace.overhead_frac", "ratio", "lower", tracing},
		{"sim.parallel_eff", "ratio", "higher", []string{"wall_s@fig14", "wall_s@fig17"}},
		{"bench.span_overhead_frac", "ratio", "lower", []string{"cpu_s@fig14"}},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".share", "%", "lower", shareMoves[m]})
	}
	return defs
}()
