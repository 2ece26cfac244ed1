package main

import (
	"fmt"
	"hash/crc32"
	"sync/atomic"

	"zerorefresh/internal/core"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/ostrace"
	"zerorefresh/internal/sim"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/workload"
)

// workloadSpec is one experiment the benchmark times. Every function takes
// the generated options, so tests can shrink the geometry.
type workloadSpec struct {
	name string
	// options generates the workload's inputs from the seed.
	options func(seed uint64) sim.Options
	// run is the untraced experiment call; it returns the output table the
	// goldens pin.
	run func(o sim.Options) (*sim.Table, error)
	// mirror re-drives run through the layer calls, one span per call.
	mirror func(m *mirror, o sim.Options) (*sim.Table, error)
	// setup builds one system at the workload's geometry and populates it
	// to the starting state of the experiment's first unit.
	setup func(o sim.Options) (*core.System, error)
	// check validates invariants of the output beyond the golden.
	check func(t *sim.Table) error
	// untraced, when set, is the identical experiment with tracing off;
	// the traced run reports the tracing overhead against it.
	untraced func(o sim.Options) error
}

// suite is the benchmark subset the multi-benchmark experiments run: two
// high-reduction (sphinx3, tpch-q1), one low (omnetpp) and the paper's
// running example (mcf).
var suite = []string{"mcf", "sphinx3", "omnetpp", "tpch-q1"}

// tracedShardCap is the per-shard ring size of the traced workload: large
// enough that the 16 MB scenario drops no event.
const tracedShardCap = 1 << 20

func profiles(names []string) []workload.Profile {
	out := make([]workload.Profile, len(names))
	for i, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			panic("unknown benchmark profile " + n)
		}
		out[i] = p
	}
	return out
}

// baseOptions sets every option the experiments default, so the mirrors
// and sim see identical values.
func baseOptions(capacity int64, seed uint64, benchmarks []string) sim.Options {
	return sim.Options{
		Capacity:   capacity,
		RowBytes:   4096,
		Windows:    8,
		Warmup:     1,
		Seed:       seed,
		Benchmarks: profiles(benchmarks),
	}
}

var workloads = []workloadSpec{
	{
		name:    "fig14",
		options: func(seed uint64) sim.Options { return baseOptions(16<<20, seed, suite) },
		run:     sim.RunFig14,
		mirror:  (*mirror).fig14,
		setup:   setupAllocated,
	},
	{
		name:    "longhorizon",
		options: func(seed uint64) sim.Options { return baseOptions(8<<20, seed, []string{"mcf"}) },
		run:     sim.RunLongHorizon,
		mirror:  (*mirror).longHorizon,
		setup:   setupAllocated,
		check:   checkNoProbeViolations,
	},
	{
		name:    "fig17",
		options: func(seed uint64) sim.Options { return baseOptions(8<<20, seed, suite) },
		run:     sim.RunFig17,
		mirror:  (*mirror).fig17,
		setup:   setupFilled,
	},
	{
		name: "traced",
		options: func(seed uint64) sim.Options {
			o := baseOptions(16<<20, seed, []string{"mcf"})
			o.Timeline = true
			return o
		},
		run:    runTraced,
		mirror: (*mirror).traced,
		setup: func(o sim.Options) (*core.System, error) {
			o.Trace = trace.New(tracedShardCap)
			return setupAllocated(o)
		},
		untraced: func(o sim.Options) error {
			o.Timeline = false
			_, err := sim.RunScenario(o, o.Benchmarks[0], 1.0)
			return err
		},
	},
}

func workloadByName(name string) (*workloadSpec, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// setupAllocated is the first unit of the allocator-driven experiments:
// the first benchmark at 100% allocation, filled through the OS allocator.
func setupAllocated(o sim.Options) (*core.System, error) {
	sys, err := core.NewSystem(coreConfig(o, true))
	if err != nil {
		return nil, err
	}
	prof := o.Benchmarks[0]
	alloc := ostrace.NewAllocator(sys.Pages())
	var fillErr error
	alloc.OnAllocate = func(p int) {
		if err := sys.FillPageFromProfile(prof, p, o.Seed, 0); err != nil && fillErr == nil {
			fillErr = err
		}
	}
	if err := alloc.SetTargetFraction(1.0); err != nil {
		return nil, err
	}
	return sys, fillErr
}

// setupFilled is the first unit of Fig. 17: every page of the rank filled
// with the first benchmark's content, page by page.
func setupFilled(o sim.Options) (*core.System, error) {
	sys, err := core.NewSystem(coreConfig(o, true))
	if err != nil {
		return nil, err
	}
	for p := 0; p < sys.Pages(); p++ {
		if err := sys.FillPageFromProfile(o.Benchmarks[0], p, o.Seed, 0); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// checkNoProbeViolations requires every long-horizon row to report zero
// retention-probe violations (the table's last column).
func checkNoProbeViolations(t *sim.Table) error {
	for _, r := range t.Rows {
		if v := r.Values[len(r.Values)-1]; v != 0 {
			return fmt.Errorf("%s: %v retention-probe violations", r.Name, v)
		}
	}
	return nil
}

// guardDecays returns o with a hook on every system the experiment builds
// that records whether any retention failure occurred, checked after every
// retention window. Fig. 17 reports no decay count of its own.
func guardDecays(o sim.Options) (sim.Options, *atomic.Bool) {
	decayed := new(atomic.Bool)
	o.Observer = &sim.Observer{OnSystem: func(sys *core.System) {
		sys.SetWatch(func(int64, dram.Time) {
			if sys.DecayEvents() != 0 {
				decayed.Store(true)
			}
		})
	}}
	return o, decayed
}

// digest counts and checksums a trace export without keeping it.
type digest struct {
	bytes int64
	crc   uint32
}

func (d *digest) Write(p []byte) (int, error) {
	d.bytes += int64(len(p))
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p)
	return len(p), nil
}

// runTraced runs the mcf scenario at 100% allocation with every layer's
// events recorded and per-window epochs captured, then exports the trace.
func runTraced(o sim.Options) (*sim.Table, error) {
	tr := trace.New(tracedShardCap)
	o.Trace = tr
	res, err := sim.RunScenario(o, o.Benchmarks[0], 1.0)
	if err != nil {
		return nil, err
	}
	var d digest
	if err := trace.WriteNDJSON(&d, tr); err != nil {
		return nil, err
	}
	return tracedTable(res, tr, d), nil
}

// traced mirrors runTraced.
func (m *mirror) traced(o sim.Options) (*sim.Table, error) {
	tr := trace.New(tracedShardCap)
	o.Trace = tr
	res, err := m.scenario(o, o.Benchmarks[0], 1.0)
	if err != nil {
		return nil, err
	}
	var d digest
	m.l.begin(spanExport)
	err = trace.WriteNDJSON(&d, tr)
	m.l.end()
	if err != nil {
		return nil, err
	}
	m.traceEvents, m.traceDropped = traceEvents(tr), float64(tr.Dropped())
	return tracedTable(res, tr, d), nil
}

func traceEvents(tr *trace.Tracer) float64 {
	n := 0
	for _, s := range tr.Shards() {
		n += s.Len()
	}
	return float64(n)
}

// tracedTable is the traced workload's output: every metric of the
// end-of-run snapshot, the refresh and energy results, the timeline, and
// the size and checksum of the trace export.
func tracedTable(res sim.ScenarioResult, tr *trace.Tracer, d digest) *sim.Table {
	t := sim.MetricsTable(fmt.Sprintf("traced scenario (%s, 100%% alloc)", res.Benchmark), res.Metrics)
	c := res.Cycles
	var refreshed int64
	for _, e := range res.Timeline {
		refreshed += e.Stats.Refreshed
	}
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"result.norm_refresh", res.NormRefresh},
		{"result.reduction", res.Reduction},
		{"result.norm_energy", res.NormEnergy},
		{"result.ebdi_ops", float64(res.EBDIOps)},
		{"result.decays", float64(res.Decays)},
		{"cycles.steps", float64(c.Steps)},
		{"cycles.refreshed", float64(c.Refreshed)},
		{"cycles.skipped", float64(c.Skipped)},
		{"cycles.chip_refreshed", float64(c.ChipRefreshed)},
		{"cycles.chip_skipped", float64(c.ChipSkipped)},
		{"cycles.table_rows", float64(c.TableRows)},
		{"cycles.ar_commands", float64(c.ARCommands)},
		{"cycles.fully_skipped_ars", float64(c.FullySkippedARs)},
		{"cycles.status_reads", float64(c.StatusReads)},
		{"cycles.status_writes", float64(c.StatusWrites)},
		{"cycles.end_ns", float64(c.End)},
		{"timeline.epochs", float64(len(res.Timeline))},
		{"timeline.refreshed", float64(refreshed)},
		{"trace.events", traceEvents(tr)},
		{"trace.dropped", float64(tr.Dropped())},
		{"trace.ndjson_bytes", float64(d.bytes)},
		{"trace.ndjson_crc32", float64(d.crc)},
	} {
		t.AddRow(r.name, r.v)
	}
	return t
}
