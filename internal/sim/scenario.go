package sim

import (
	"fmt"
	"sort"

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
// withDefaults; the exported fields set the scale, the seed, the suite and
// the observers. They carry no design knobs: every run builds the paper's
// design, and an ablation edits its configuration through the unexported
// per-run edit.
type Options struct {
	// Capacity is the simulated rank size. The default 32 MB stands in
	// for the paper's 32 GB at 1/1024 scale; all reported metrics are
	// capacity-normalized ratios.
	Capacity int64
	// RowBytes is the rank-level row size (Figure 18 sweeps it).
	RowBytes int
	// Windows is the number of measured retention windows (the paper
	// executes 8 refresh cycles).
	Windows int
	// Warmup is the number of learning windows excluded from
	// measurement (the access-bit table starts conservatively all-set).
	Warmup int
	// Seed drives all generators.
	Seed uint64
	// Benchmarks restricts the suite; nil runs all 23.
	Benchmarks []workload.Profile
	// Trace, when non-nil, receives typed events from every layer of the
	// simulated system (see internal/trace).
	Trace *trace.Tracer
	// Observer, when non-nil, wires a live introspection plane into every
	// system the run builds (see internal/obs): its TraceSink tees every
	// shard's events, its Progress board receives lock-free progress
	// updates, and OnSystem runs against each system built or cloned so
	// the caller can install per-window watch hooks (watchdogs).
	Observer *Observer
	// Timeline enables per-window epoch capture; runs report it via
	// ScenarioResult.Timeline.
	Timeline bool

	// edit, when non-nil, edits the paper's configuration before each
	// system of the run is built: Figure 16's 64 ms window and the
	// ablation rows. It is set per unit, so the configuration it edits
	// still carries the unit's own tracer.
	edit func(*core.Config)
}

// defaultCapacity is the default simulated rank: 32 MB standing in for the
// paper's 32 GB.
const defaultCapacity = 32 << 20

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.Capacity == 0 {
		o.Capacity = defaultCapacity
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

// coreConfig builds the system configuration for a run: the paper's
// design at the run's scale, with its observers, then o.edit.
func (o Options) coreConfig() core.Config {
	cfg := core.DefaultConfig(o.Capacity)
	cfg.RowBytes = o.RowBytes
	cfg.Seed = o.Seed
	cfg.Trace = o.Trace
	cfg.Timeline = o.Timeline
	if o.Observer != nil {
		cfg.TraceSink = o.Observer.TraceSink
		cfg.Progress = o.Observer.Progress
	}
	if o.edit != nil {
		// Edit a copy: the edit is an indirect call, so the variable it
		// points at moves to the heap, and only edited runs should pay.
		edited := cfg
		o.edit(&edited)
		cfg = edited
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
	// OnSystem runs against each system right after it is built or
	// cloned — the seam for core.System.SetWatch hooks. Experiments build
	// systems from parallel units, so it must be safe for concurrent use.
	OnSystem func(sys *core.System)
}

// newSystem builds a system for this run and applies the observer's
// OnSystem hook. All sim runners build their systems through it.
func (o Options) newSystem() (*core.System, error) {
	sys, err := core.NewSystem(o.coreConfig())
	if err != nil {
		return nil, err
	}
	o.observe(sys)
	return sys, nil
}

// clone clones sys and applies the observer's OnSystem hook to the clone,
// as newSystem does to every system it builds.
func (o Options) clone(sys *core.System) (*core.System, error) {
	c, err := sys.Clone()
	if err != nil {
		return nil, err
	}
	o.observe(c)
	return c, nil
}

func (o Options) observe(sys *core.System) {
	if o.Observer != nil && o.Observer.OnSystem != nil {
		o.Observer.OnSystem(sys)
	}
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
	res, err := runScenarios(o.withDefaults(), prof, []float64{allocFrac})
	return res[0], err
}

// runScenarios measures one benchmark at each allocation fraction and
// returns the results in the order of fracs. It populates memory once, in
// ascending fraction order: the first-fit allocator keeps the allocated
// pages the prefix [0, n), so the memory a fraction starts from is the
// next smaller fraction's plus the pages between them. Every fraction but
// the largest is measured on a clone of the system populated to it, the
// largest on the system itself, so each result equals that of a system
// populated from empty to its fraction alone. On an error the results
// measured so far are returned with it.
func runScenarios(o Options, prof workload.Profile, fracs []float64) ([]ScenarioResult, error) {
	results := make([]ScenarioResult, len(fracs))
	order := make([]int, len(fracs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] < fracs[order[b]] })
	sys, err := o.newSystem()
	if err != nil {
		return results, err
	}
	gen := prof.Lines(o.Seed)
	alloc := ostrace.NewAllocator(sys.Pages())
	for k, i := range order {
		results[i] = ScenarioResult{Benchmark: prof.Name, AllocFrac: fracs[i]}
		allocated, err := populate(sys, alloc, &gen, fracs[i])
		if err != nil {
			return results, err
		}
		run := sys
		if k < len(order)-1 {
			if run, err = o.clone(sys); err != nil {
				return results, err
			}
		}
		if err := measure(o, run, prof, &gen, allocated, &results[i]); err != nil {
			return results, err
		}
	}
	return results, nil
}

// populate grows the allocation to frac through the OS allocator, filling
// every newly allocated page with the benchmark's content, and returns the
// allocated pages. Free pages hold zeros: the boot state needs no writes,
// and allocation only grows, so no page is ever cleansed.
func populate(sys *core.System, alloc *ostrace.Allocator, gen *workload.LineGen, frac float64) ([]int, error) {
	var fillErr error
	alloc.OnAllocate = func(p int) {
		if err := sys.FillPage(gen, p, 0); err != nil && fillErr == nil {
			fillErr = err
		}
	}
	if err := alloc.SetTargetFraction(frac); err != nil {
		return nil, err
	}
	if fillErr != nil {
		return nil, fillErr
	}
	return alloc.AllocatedPageIndices(), nil
}

// measure runs the warm-up and the measured windows of one scenario on a
// populated system and fills in res.
func measure(o Options, sys *core.System, prof workload.Profile, gen *workload.LineGen, allocated []int, res *ScenarioResult) error {
	// The warm-up writes nothing, so the pipeline's ops from here on are
	// the measured windows' writes.
	opsBefore := sys.Pipeline.Ops()
	cycles, err := runWindows(sys, prof, gen, allocated, o.Seed, o.Warmup, o.Windows)
	if err != nil {
		return err
	}
	res.Cycles = cycles

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
		return fmt.Errorf("sim: %d retention failures under %s", res.Decays, prof.Name)
	}
	return nil
}

// runWindows runs warmup learning windows on a populated system, then
// windows windows each after its write burst over the allocated pages, and
// returns the statistics of the windows with writes. Every one of those
// receives a write burst, so the dense loop is the whole schedule: there
// are no idle windows to fast-forward.
func runWindows(sys *core.System, prof workload.Profile, gen *workload.LineGen, allocated []int, seed uint64, warmup, windows int) (refresh.CycleStats, error) {
	var cycles refresh.CycleStats
	for w := 0; w < warmup; w++ {
		sys.RunWindow()
	}
	for w := 0; w < windows; w++ {
		if err := applyWindowWrites(sys, prof, gen, allocated, seed, w); err != nil {
			return cycles, err
		}
		cycles.Add(sys.RunWindow())
	}
	return cycles, nil
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
// refresh reduction in Figure 16. gen is the run's generator of prof's
// image under seed.
func applyWindowWrites(sys *core.System, prof workload.Profile, gen *workload.LineGen, allocated []int, seed uint64, window int) error {
	if len(allocated) == 0 {
		return nil
	}
	dcfg := sys.DRAM.Config()
	for _, i := range prof.WindowWriteSet(seed, window, len(allocated), dcfg.RowBytes, dcfg.Timing.TRET) {
		if err := sys.FillPage(gen, allocated[i], uint64(window)+1); err != nil {
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

// normalTemperature selects the 64 ms normal-temperature retention window
// in place of the paper's base 32 ms extended mode (Figure 16).
func normalTemperature(c *core.Config) { c.Extended = false }

// The ablations: the design choices DESIGN.md argues for, each measured by
// taking it out of the paper's configuration. A row is one edit of
// core.Config, run through the same populate-and-measure code as Figure 14
// (sphinx3, 100% allocated) and through the Figure 17 IPC model.

// ablation is one row of the ablation table.
type ablation struct {
	name string
	edit func(*core.Config)
}

var ablations = []ablation{
	{"full design", nil},
	// Pipeline stages (Section V): without EBDI only literal zeros help;
	// without the bit-plane stage zero bits stay trapped inside delta
	// words; without cell-type awareness anti-cell rows never discharge.
	{"no EBDI", func(c *core.Config) { c.Transform.EBDI = false }},
	{"no bit-plane", func(c *core.Config) { c.Transform.BitPlane = false }},
	{"no cell-aware", func(c *core.Config) { c.Transform.CellAware = false }},
	{"no transform", func(c *core.Config) { c.Transform = transform.Options{} }},
	// Chip mappings (Section V-D): no rotation, and the conventional
	// burst mapping that scatters every word over all chips (Figure 13).
	{"direct mapping", func(c *core.Config) { c.Mapping = transform.DirectMapping{} }},
	{"byte-scatter", func(c *core.Config) { c.Mapping = transform.ByteScatterMapping{} }},
	// Staggered refresh counters (Section IV-C).
	{"no stagger", func(c *core.Config) { c.Refresh.Stagger = false }},
	// Row sparing (Section IV-B): spared rows never skip.
	{"0.5% spared rows", func(c *core.Config) { c.SparedRowFraction = 0.005 }},
	{"5% spared rows", func(c *core.Config) { c.SparedRowFraction = 0.05 }},
	// One status bit per chip-row instead of per rank row: each chip
	// skips on its own, at 8x the table, so staggering is moot. Compare
	// the chip-level column against the full design's.
	{"per-chip status", func(c *core.Config) { c.Refresh.PerChipStatus, c.Refresh.Stagger = true, false }},
	{"per-chip, direct", func(c *core.Config) {
		c.Refresh.PerChipStatus, c.Refresh.Stagger = true, false
		c.Mapping = transform.DirectMapping{}
	}},
	// The all-bank AR policy: the same refresh counts, but every command
	// blocks the whole rank.
	{"all-bank AR", func(c *core.Config) { c.Refresh.AllBank = true }},
}

// RunAblations measures every ablation row on sphinx3, the benchmark with
// the most to lose. Each row reports the refresh reduction and the
// chip-row-level reduction at 100% allocation (as Figure 14 measures them)
// and the Figure 17 IPCs: the conventional-refresh baseline under the
// row's AR policy and ZERO-REFRESH's IPC normalized to it. Rows run as
// parallel units.
func RunAblations(o Options) (*Table, error) {
	o = o.withDefaults()
	prof, ok := workload.ByName("sphinx3")
	if !ok {
		return nil, fmt.Errorf("sim: sphinx3 profile missing")
	}
	t := &Table{
		Title:   "Ablations: the paper's design with one choice taken out (sphinx3, 100% alloc)",
		Columns: []string{"reduction", "chip reduction", "base IPC", "norm IPC"},
		Note:    "chip reduction counts chip-rows, the unit per-chip status skips in",
	}
	rows := make([][]float64, len(ablations))
	err := forEach(o, len(ablations), func(i int, o Options) error {
		var err error
		rows[i], err = ablations[i].run(o, prof)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, a := range ablations {
		t.AddRow(a.name, rows[i]...)
	}
	return t, nil
}

// run measures one row: a scenario and an IPC run of prof, both on the
// paper's configuration with a's edit applied.
func (a ablation) run(o Options, prof workload.Profile) ([]float64, error) {
	o.edit = a.edit
	res, err := RunScenario(o, prof, 1.0)
	if err != nil {
		return nil, err
	}
	ipc, err := RunIPC(o, prof)
	if err != nil {
		return nil, err
	}
	return []float64{res.Reduction, 1 - res.Cycles.NormalizedChipRefresh(), ipc.BaselineIPC, ipc.Speedup}, nil
}
