package main

import (
	"fmt"
	"strings"

	"zerorefresh/internal/core"
	"zerorefresh/internal/cpu"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/energy"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/memctrl"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/ostrace"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/sim"
	"zerorefresh/internal/workload"
)

// The traced run re-drives each experiment through the public calls of
// every layer, in the order the experiment makes them, and wraps each call
// in a span. Each mirror below follows one sim entry point statement by
// statement; the tests pin its results bit-identical to that entry point,
// so the spans time exactly the work the untraced run does. The mirrors run
// their units sequentially, which keeps the ledger single-goroutine.

// mirror drives one traced repetition and collects the layer counts the
// spans cannot see.
type mirror struct {
	l ledger
	// page holds the lines of one page between the LineAt and WriteLineAt
	// spans.
	page [][64]byte

	// lineCalls and writeCalls count LineAt and WriteLineAt calls.
	lineCalls, writeCalls int64
	// counts sums the end-of-unit metrics of every system built, by metric
	// name without its rank or cpu prefix.
	counts map[string]float64
	// events sums the event-loop statistics of every system built.
	events core.EventStats
	// traceEvents and traceDropped are the traced workload's trace totals.
	traceEvents, traceDropped float64
}

func newMirror() *mirror {
	return &mirror{counts: make(map[string]float64)}
}

// noteSystem folds a finished system's registry into the layer counts.
func (m *mirror) noteSystem(sys *core.System, snap metrics.Snapshot) {
	for _, smp := range snap.Samples {
		name := smp.Name
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[i+1:]
		}
		m.counts[name] += smp.Value()
	}
	st := sys.EventStats()
	m.events.Popped += st.Popped
	m.events.Windows += st.Windows
	m.events.Replayed += st.Replayed
}

// coreConfig is the system configuration sim builds for o.
func coreConfig(o sim.Options, extended bool) core.Config {
	cfg := core.DefaultConfig(o.Capacity)
	cfg.RowBytes = o.RowBytes
	cfg.Extended = extended
	cfg.Seed = o.Seed
	cfg.Trace = o.Trace
	cfg.Timeline = o.Timeline
	return cfg
}

func (m *mirror) newSystem(o sim.Options, extended bool) (*core.System, error) {
	m.l.begin(spanNewSystem)
	defer m.l.end()
	return core.NewSystem(coreConfig(o, extended))
}

// fillPage is core.System.FillPageFromProfile split at the layer boundary:
// the page's lines are generated in one span and stored in another.
func (m *mirror) fillPage(sys *core.System, prof workload.Profile, page int, seed, version uint64) error {
	lines := sys.DRAM.Config().RowBytes / dram.LineBytes
	if len(m.page) < lines {
		m.page = make([][64]byte, lines)
	}
	buf := m.page[:lines]
	first := uint64(page) * uint64(lines)

	m.l.begin(spanLine)
	for i := range buf {
		buf[i] = prof.LineAt(seed, first+uint64(i), version)
	}
	m.l.end()
	m.lineCalls += int64(lines)

	m.l.begin(spanWrite)
	defer m.l.end()
	base := sys.PageAddr(page)
	for i := range buf {
		if err := sys.WriteLineAt(base+uint64(i)*dram.LineBytes, buf[i]); err != nil {
			return err
		}
		m.writeCalls++
	}
	return nil
}

// populate allocates frac of the system's pages through the OS allocator,
// filling each allocated page with the profile's content, as the sim
// experiments populate memory. Allocation starts from empty memory, so the
// allocator never frees a page and sim's page-cleansing hook never runs.
func (m *mirror) populate(sys *core.System, prof workload.Profile, seed uint64, frac float64) ([]int, error) {
	alloc := ostrace.NewAllocator(sys.Pages())
	var fillErr error
	alloc.OnAllocate = func(p int) {
		if err := m.fillPage(sys, prof, p, seed, 0); err != nil && fillErr == nil {
			fillErr = err
		}
	}
	m.l.begin(spanAlloc)
	err := alloc.SetTargetFraction(frac)
	m.l.end()
	if err != nil {
		return nil, err
	}
	if fillErr != nil {
		return nil, fillErr
	}
	return alloc.AllocatedPageIndices(), nil
}

// windowWrites is one retention window of application stores (sim's
// applyWindowWrites).
func (m *mirror) windowWrites(sys *core.System, prof workload.Profile, allocated []int, seed uint64, window int) error {
	if len(allocated) == 0 {
		return nil
	}
	m.l.begin(spanBurst)
	defer m.l.end()
	dcfg := sys.DRAM.Config()
	for _, i := range prof.WindowWriteSet(seed, window, len(allocated), dcfg.RowBytes, dcfg.Timing.TRET) {
		if err := m.fillPage(sys, prof, allocated[i], seed, uint64(window)+1); err != nil {
			return err
		}
	}
	return nil
}

func (m *mirror) runWindow(sys *core.System) refresh.CycleStats {
	m.l.begin(spanWindow)
	defer m.l.end()
	return sys.RunWindow()
}

// scenario mirrors sim.RunScenario with the dense window driver.
func (m *mirror) scenario(o sim.Options, prof workload.Profile, allocFrac float64) (sim.ScenarioResult, error) {
	m.l.begin(spanUnit)
	defer m.l.end()
	res := sim.ScenarioResult{Benchmark: prof.Name, AllocFrac: allocFrac}
	sys, err := m.newSystem(o, true)
	if err != nil {
		return res, err
	}
	allocated, err := m.populate(sys, prof, o.Seed, allocFrac)
	if err != nil {
		return res, err
	}
	for w := 0; w < o.Warmup; w++ {
		m.runWindow(sys)
	}
	opsBefore := sys.Pipeline.Ops()
	for w := 0; w < o.Windows; w++ {
		if err := m.windowWrites(sys, prof, allocated, o.Seed, w); err != nil {
			return res, err
		}
		res.Cycles.Add(m.runWindow(sys))
	}

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
	m.noteSystem(sys, res.Metrics)
	if res.Decays != 0 {
		return res, fmt.Errorf("%d retention failures under %s", res.Decays, prof.Name)
	}
	return res, nil
}

// fig14 mirrors sim.RunFig14.
func (m *mirror) fig14(o sim.Options) (*sim.Table, error) {
	t := &sim.Table{}
	for _, sc := range sim.Scenarios() {
		t.Columns = append(t.Columns, sc.Name)
	}
	for _, prof := range o.Benchmarks {
		vals := make([]float64, 0, len(t.Columns))
		for _, sc := range sim.Scenarios() {
			r, err := m.scenario(o, prof, sc.AllocFrac)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prof.Name, sc.Name, err)
			}
			vals = append(vals, r.NormRefresh)
		}
		t.AddRow(prof.Name, vals...)
	}
	t.AddMeanRow()
	return t, nil
}

// longHorizon mirrors sim.RunLongHorizon. The retention probe is scheduled
// through core.System.Schedule exactly as ScheduleRetentionChecks arms it,
// so that CheckIntegrity runs inside a span.
func (m *mirror) longHorizon(o sim.Options) (*sim.Table, error) {
	prof, ok := workload.ByName("mcf")
	if !ok {
		return nil, fmt.Errorf("mcf profile missing")
	}
	horizon := o.Windows * 1024
	t := &sim.Table{Columns: []string{"windows", "replayed frac", "events", "norm refresh", "probe viol"}}
	for _, burstEvery := range []int{64, 256, 1024} {
		row, err := m.longHorizonUnit(o, prof, horizon, burstEvery)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("burst/%dw", burstEvery), row...)
	}
	return t, nil
}

func (m *mirror) longHorizonUnit(o sim.Options, prof workload.Profile, horizon, burstEvery int) ([]float64, error) {
	m.l.begin(spanUnit)
	defer m.l.end()
	sys, err := m.newSystem(o, true)
	if err != nil {
		return nil, err
	}
	allocated, err := m.populate(sys, prof, o.Seed, 1.0)
	if err != nil {
		return nil, err
	}

	tret := sys.DRAM.Config().Timing.TRET
	base := sys.Clock
	var burstErr error
	for w := 0; w < horizon; w += burstEvery {
		w := w
		sys.ScheduleWriteBurst(base+dram.Time(w)*tret, func(dram.Time) {
			if err := m.windowWrites(sys, prof, allocated, o.Seed, w); err != nil && burstErr == nil {
				burstErr = err
			}
		})
	}
	var violations int64
	interval := 128 * tret
	var probe func(now dram.Time)
	probe = func(now dram.Time) {
		m.l.begin(spanProbe)
		v := 0
		for i := range sys.Ranks {
			v += sys.Ranks[i].DRAM.CheckIntegrity(now)
		}
		m.l.end()
		violations += int64(v)
		sys.Schedule(now+interval, engine.KindRetentionCheck, -1, probe)
	}
	sys.Schedule(base+tret/2, engine.KindRetentionCheck, -1, probe)

	m.l.begin(spanEvents)
	cycles := sys.RunUntil(base + dram.Time(horizon)*tret)
	m.l.end()
	m.noteSystem(sys, sys.MetricsSnapshot())
	if burstErr != nil {
		return nil, burstErr
	}
	if d := sys.DecayEvents(); d != 0 {
		return nil, fmt.Errorf("%d retention failures at burst spacing %d", d, burstEvery)
	}
	st := sys.EventStats()
	return []float64{
		float64(st.Windows),
		float64(st.Replayed) / float64(st.Windows),
		float64(st.Popped),
		cycles.NormalizedRefresh(),
		float64(violations),
	}, nil
}

// fig17 mirrors sim.RunFig17.
func (m *mirror) fig17(o sim.Options) (*sim.Table, error) {
	t := &sim.Table{Columns: []string{"base IPC", "ZR IPC", "normalized"}}
	for _, prof := range o.Benchmarks {
		r, err := m.ipc(o, prof)
		if err != nil {
			return nil, err
		}
		t.AddRow(prof.Name, r.BaselineIPC, r.ZeroIPC, r.Speedup)
	}
	t.AddMeanRow()
	return t, nil
}

// ipc mirrors sim.RunIPC.
func (m *mirror) ipc(o sim.Options, prof workload.Profile) (sim.IPCResult, error) {
	m.l.begin(spanUnit)
	defer m.l.end()
	res := sim.IPCResult{Benchmark: prof.Name}
	sys, err := m.newSystem(o, true)
	if err != nil {
		return res, err
	}
	allPages := make([]int, sys.Pages())
	for p := range allPages {
		allPages[p] = p
		if err := m.fillPage(sys, prof, p, o.Seed, 0); err != nil {
			return res, err
		}
	}
	m.runWindow(sys)
	dcfg := sys.DRAM.Config()
	for w := 0; w < 2; w++ {
		if err := m.windowWrites(sys, prof, allPages, o.Seed, w); err != nil {
			return res, err
		}
		m.runWindow(sys)
	}
	m.noteSystem(sys, sys.MetricsSnapshot())
	if d := sys.DecayEvents(); d != 0 {
		return res, fmt.Errorf("%d retention failures under %s", d, prof.Name)
	}

	counts := sys.Engine.SetRefreshedCounts()
	rowsPerAR := sys.Engine.Config().RowsPerAR
	busy := make([][]dram.Time, len(counts))
	for b, sets := range counts {
		busy[b] = make([]dram.Time, len(sets))
		for i, refreshed := range sets {
			busy[b][i] = dram.Time(sim.PerfTRFCns * float64(refreshed) / float64(rowsPerAR))
		}
	}
	ccfg := cpu.DefaultCoreConfig()
	const cores = 4
	pcfg := memctrl.PerfConfig{
		Banks:       dcfg.Banks,
		ARInterval:  dcfg.Timing.TRET / 8192,
		AllBank:     sys.Engine.Config().AllBank,
		HitService:  dcfg.Timing.TCAS + dcfg.Timing.TBurst,
		MissService: dcfg.Timing.TRP + dcfg.Timing.TRCD + dcfg.Timing.TCAS + dcfg.Timing.TBurst,
	}
	instrPerMiss := 1000 / prof.MPKI
	clcfg := memctrl.ClosedLoopConfig{
		Perf:       pcfg,
		Cores:      cores,
		MLP:        int(ccfg.MLP),
		ThinkNs:    ccfg.MLP * instrPerMiss * prof.BaseCPI / ccfg.FreqGHz,
		RowHitRate: prof.RowHitRate,
		WriteFrac:  prof.WriteFrac,
		Seed:       o.Seed,
	}
	horizon := dram.Time(2 * dram.Millisecond)
	m.l.begin(spanClosedLoop)
	base := memctrl.SimulateClosedLoop(clcfg, memctrl.ConstantSchedule{Busy: dram.Time(sim.PerfTRFCns)}, horizon)
	zero := memctrl.SimulateClosedLoop(clcfg, memctrl.SliceSchedule{Busy: busy}, horizon)
	m.l.end()
	res.BaselineLatN = base.AvgLatency()
	res.ZeroLatN = zero.AvgLatency()
	cyclesPerCore := float64(horizon) * ccfg.FreqGHz
	res.BaselineIPC = float64(base.Reads) * instrPerMiss / cyclesPerCore / cores
	res.ZeroIPC = float64(zero.Reads) * instrPerMiss / cyclesPerCore / cores
	if res.BaselineIPC > 0 {
		res.Speedup = res.ZeroIPC / res.BaselineIPC
	}
	return res, nil
}
