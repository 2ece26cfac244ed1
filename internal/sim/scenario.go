package sim

import (
	"fmt"

	"zerorefresh/internal/core"
	"zerorefresh/internal/energy"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/ostrace"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
	"zerorefresh/internal/workload"
)

// Options configures an experiment run. The zero value is completed by
// withDefaults; fields are exported so the CLI and benchmarks can override
// scale and ablation knobs.
type Options struct {
	// Capacity is the simulated rank size. The default 32 MB stands in
	// for the paper's 32 GB at 1/1024 scale; all reported metrics are
	// capacity-normalized ratios.
	Capacity int64
	// RowBytes is the rank-level row size (Figure 18 sweeps it).
	RowBytes int
	// CellGroupRows overrides the true/anti-cell interleave period
	// (0 = the device-typical 512).
	CellGroupRows int
	// Ranks splits the capacity over multiple ranks (0 = 1).
	Ranks int
	// Windows is the number of measured retention windows (the paper
	// executes 8 refresh cycles).
	Windows int
	// Warmup is the number of learning windows excluded from
	// measurement (the access-bit table starts conservatively all-set).
	Warmup int
	// Seed drives all generators.
	Seed uint64
	// Refresh, Transform and Mapping override the ZERO-REFRESH design
	// knobs for ablations; nil selects the paper's design.
	Refresh   *refresh.Config
	Transform *transform.Options
	Mapping   transform.ChipMapping
	// SparedRowFraction marks this fraction of rows as row-spared
	// (never skippable).
	SparedRowFraction float64
	// Benchmarks restricts the suite; nil runs all 23.
	Benchmarks []workload.Profile
	// Trace, when non-nil, receives typed events from every layer of the
	// simulated system (see internal/trace).
	Trace *trace.Tracer
	// Observer, when non-nil, wires a live introspection plane into every
	// system the run builds (see internal/obs): its TraceSink tees every
	// shard's events, its Progress board receives lock-free progress
	// updates, and OnSystem runs against each freshly built system so the
	// caller can install per-window watch hooks (watchdogs).
	Observer *Observer
	// Timeline enables per-window epoch capture; runs report it via
	// ScenarioResult.Timeline.
	Timeline bool
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Capacity == 0 {
		o.Capacity = 32 << 20
	}
	if o.RowBytes == 0 {
		o.RowBytes = 4096
	}
	if o.Windows == 0 {
		o.Windows = 8
	}
	if o.Warmup == 0 {
		o.Warmup = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Benchmarks == nil {
		o.Benchmarks = workload.Benchmarks()
	}
	return o
}

// coreConfig builds the system configuration for a run.
func (o Options) coreConfig(extended bool) core.Config {
	cfg := core.DefaultConfig(o.Capacity)
	cfg.RowBytes = o.RowBytes
	cfg.CellGroupRows = o.CellGroupRows
	cfg.Ranks = o.Ranks
	cfg.Extended = extended
	cfg.Seed = o.Seed
	cfg.SparedRowFraction = o.SparedRowFraction
	if o.Refresh != nil {
		cfg.Refresh = *o.Refresh
	}
	if o.Transform != nil {
		cfg.Transform = *o.Transform
	}
	if o.Mapping != nil {
		cfg.Mapping = o.Mapping
	}
	cfg.Trace = o.Trace
	cfg.Timeline = o.Timeline
	if o.Observer != nil {
		cfg.TraceSink = o.Observer.TraceSink
		cfg.Progress = o.Observer.Progress
	}
	return cfg
}

// Observer wires an external introspection plane into the systems a run
// builds. It is deliberately expressed in core/engine terms — sim does
// not import internal/obs; zrsim assembles the plane and passes its hooks
// down through here.
type Observer struct {
	// TraceSink interposes on every shard's event sink (see
	// core.Config.TraceSink). Installing one disables the refresh
	// engines' bulk idle replay while the sink is actively observing
	// (armed recorder, connected tail client, or a full tracer attached);
	// a passive sink keeps the fast path.
	TraceSink func(label string, shard engine.Tracer) engine.Tracer
	// Progress receives lock-free sim-time/window/event updates.
	Progress *core.Progress
	// OnSystem runs against each system right after it is built — the
	// seam for core.System.SetWatch hooks.
	OnSystem func(sys *core.System)
}

// newSystem builds a system for this run and applies the observer's
// OnSystem hook. All sim runners build their systems through it.
func (o Options) newSystem(extended bool) (*core.System, error) {
	sys, err := core.NewSystem(o.coreConfig(extended))
	if err != nil {
		return nil, err
	}
	if o.Observer != nil && o.Observer.OnSystem != nil {
		o.Observer.OnSystem(sys)
	}
	return sys, nil
}

// ScenarioResult reports one (benchmark, allocation) refresh experiment.
type ScenarioResult struct {
	Benchmark string
	AllocFrac float64
	// Cycles accumulates the measured windows.
	Cycles refresh.CycleStats
	// NormRefresh is refresh work relative to conventional refresh
	// (Figure 14/16/18/19 metric); Reduction = 1 - NormRefresh.
	NormRefresh float64
	Reduction   float64
	// NormEnergy is refresh energy relative to conventional refresh,
	// overheads included (Figure 15 metric).
	NormEnergy float64
	// EBDIOps is the transform-operation count charged to the energy
	// model over the measured windows.
	EBDIOps int64
	// Decays must be zero: ZERO-REFRESH never sacrifices integrity.
	Decays int64
	// Metrics is the unified end-of-run snapshot of every layer: per-rank
	// DRAM/refresh/controller counters, the shared transform pipeline,
	// and the derived energy gauges. Render it with MetricsTable.
	Metrics metrics.Snapshot
	// Timeline holds the per-window epochs when Options.Timeline was set
	// (warmup windows included — it is the full run's time-series).
	Timeline []core.Epoch
}

// RunScenario runs one benchmark under one memory-allocation fraction
// (Section VI-A's four scenarios) in the paper's base extended-temperature
// mode and reports refresh and energy metrics.
func RunScenario(o Options, prof workload.Profile, allocFrac float64) (ScenarioResult, error) {
	return runScenario(o.withDefaults(), prof, allocFrac, true)
}

// RunScenarioTemp is RunScenario with an explicit temperature mode
// (extended=false selects the 64 ms normal-temperature window, Figure 16).
func RunScenarioTemp(o Options, prof workload.Profile, allocFrac float64, extended bool) (ScenarioResult, error) {
	return runScenario(o.withDefaults(), prof, allocFrac, extended)
}

func runScenario(o Options, prof workload.Profile, allocFrac float64, extended bool) (ScenarioResult, error) {
	sys, err := o.newSystem(extended)
	if err != nil {
		return ScenarioResult{}, err
	}
	res := ScenarioResult{Benchmark: prof.Name, AllocFrac: allocFrac}

	// Populate memory: allocated pages hold application content, free
	// pages hold zeros (the boot/cleansed state needs no writes).
	alloc := ostrace.NewAllocator(sys.Pages())
	var fillErr error
	alloc.OnAllocate = func(p int) {
		if err := sys.FillPageFromProfile(prof, p, o.Seed, 0); err != nil && fillErr == nil {
			fillErr = err
		}
	}
	alloc.OnFree = func(p int) {
		if err := sys.CleansePage(p); err != nil && fillErr == nil {
			fillErr = err
		}
	}
	if err := alloc.SetTargetFraction(allocFrac); err != nil {
		return res, err
	}
	if fillErr != nil {
		return res, fillErr
	}

	// Every measured window receives a write burst, so the dense loop is
	// the whole schedule: there are no idle windows to fast-forward.
	allocated := alloc.AllocatedPageIndices()
	for w := 0; w < o.Warmup; w++ {
		sys.RunWindow()
	}
	opsBefore := sys.Pipeline.Ops()
	for w := 0; w < o.Windows; w++ {
		if err := applyWindowWrites(sys, prof, allocated, o.Seed, w); err != nil {
			return res, err
		}
		res.Cycles.Add(sys.RunWindow())
	}

	// Energy accounting: the EBDI module runs on writes (counted by the
	// pipeline) and on reads; reads are estimated from the profile's
	// write fraction of total traffic.
	writes := sys.Pipeline.Ops() - opsBefore
	total := writes
	if prof.WriteFrac > 0 && prof.WriteFrac < 1 {
		total = int64(float64(writes) / prof.WriteFrac)
	}
	res.EBDIOps = total
	model := energy.NewModel(sys.DRAM.Config(), sys.Engine)
	res.NormRefresh = res.Cycles.NormalizedRefresh()
	res.Reduction = 1 - res.NormRefresh
	res.NormEnergy = model.NormalizedEnergy(res.Cycles, res.EBDIOps)
	ereg := metrics.NewRegistry()
	model.Record(ereg, res.Cycles, res.EBDIOps)
	sys.Metrics().Attach("energy", ereg)
	res.Metrics = sys.MetricsSnapshot()
	res.Timeline = sys.Timeline()
	res.Decays = sys.DecayEvents()
	if res.Decays != 0 {
		return res, fmt.Errorf("sim: %d retention failures under %s", res.Decays, prof.Name)
	}
	return res, nil
}

// RunMetricsDump runs one fully-allocated scenario (the first configured
// benchmark) and renders the unified end-of-run metrics snapshot: every
// counter of every rank's DRAM, refresh engine and controller, the shared
// transform pipeline, and the derived energy gauges, in one table.
func RunMetricsDump(o Options) (*Table, error) {
	o = o.withDefaults()
	prof := o.Benchmarks[0]
	r, err := RunScenario(o, prof, 1.0)
	if err != nil {
		return nil, err
	}
	// Fold in the benchmark's content statistics so every stats family —
	// hardware counters, transform ops, energy, workload content — lands
	// in the one table.
	wreg := metrics.NewRegistry()
	prof.MeasureContent(o.Seed, 64).Record(wreg)
	snap := metrics.Merge([]metrics.Snapshot{r.Metrics, wreg.Snapshot()}, nil)
	t := MetricsTable(fmt.Sprintf("Unified layer metrics (%s, 100%% alloc)", prof.Name), snap)
	t.Note = fmt.Sprintf("norm refresh %.3f, norm energy %.3f over %d windows",
		r.NormRefresh, r.NormEnergy, o.Windows)
	return t, nil
}

// applyWindowWrites models one retention window of application stores:
// WrittenBytesPerWindow worth of pages is rewritten with fresh values
// (version = window+1) but unchanged data-structure classes. The dirtied
// pages are sampled uniformly over the allocated region: a long-running
// process's hot pages are virtually clustered but physically scattered, so
// each dirty page typically lands in its own AR set — this physical
// scatter is what makes the 64 ms window (double the footprint) cost
// refresh reduction in Figure 16.
func applyWindowWrites(sys *core.System, prof workload.Profile, allocated []int, seed uint64, window int) error {
	if len(allocated) == 0 {
		return nil
	}
	dcfg := sys.DRAM.Config()
	for _, i := range prof.WindowWriteSet(seed, window, len(allocated), dcfg.RowBytes, dcfg.Timing.TRET) {
		if err := sys.FillPageFromProfile(prof, allocated[i], seed, uint64(window)+1); err != nil {
			return err
		}
	}
	return nil
}

// Scenario names the four memory-utilization scenarios of Section VI-A.
type Scenario struct {
	Name string
	// AllocFrac is the allocated-memory fraction (Table I).
	AllocFrac float64
	// Trace is the datacenter trace the scenario derives from ("" for
	// the fully-allocated case).
	Trace string
}

// Scenarios returns the paper's four scenarios in figure order.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "100% alloc", AllocFrac: 1.00},
		{Name: "88% (Alibaba)", AllocFrac: 0.88, Trace: "alibaba"},
		{Name: "70% (Google)", AllocFrac: 0.70, Trace: "google"},
		{Name: "28% (Bitbrains)", AllocFrac: 0.28, Trace: "bitbrains"},
	}
}
