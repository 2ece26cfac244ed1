// Package core assembles the complete ZERO-REFRESH system of the paper: a
// DRAM rank with charge semantics (internal/dram), the DRAM-side
// charge-aware refresh engine with its discharged-status and access-bit
// tables (internal/refresh), the CPU-side value-transformation pipeline
// (internal/transform), and the memory controller datapath that connects
// them (internal/memctrl). It also provides the page-level operations the
// experiments are built from: filling pages with application content,
// cleansing pages OS-style, and running retention windows.
package core

import (
	"fmt"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/memctrl"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
	"zerorefresh/internal/workload"
)

// CellTypeSource selects how the CPU side learns the true/anti-cell layout.
type CellTypeSource int

const (
	// CellTypesExact uses an oracle (perfect identification).
	CellTypesExact CellTypeSource = iota
	// CellTypesProbed runs the boot-time identification procedure of
	// Section II-B against the module.
	CellTypesProbed
	// CellTypesNoisy flips a fraction of the oracle's answers
	// (sensitivity studies; Section V-B argues this is safe).
	CellTypesNoisy
)

// Config configures a full system.
type Config struct {
	// Capacity is the total memory capacity in bytes, split evenly over
	// Ranks.
	Capacity int64
	// Ranks is the number of DRAM ranks (default 1). Each rank has its
	// own module and refresh engine; the controller routes by address.
	Ranks int
	// RowBytes is the rank-level row size (2-8 KB; 4 KB default).
	RowBytes int
	// CellGroupRows overrides the true/anti-cell interleaving period
	// (default 512, the value prior work found in common devices).
	// Smaller values exercise anti-cell rows at small test capacities.
	CellGroupRows int
	// Extended selects the 32 ms extended-temperature retention window;
	// false selects the 64 ms normal window.
	Extended bool
	// Refresh configures the charge-aware engine.
	Refresh refresh.Config
	// Transform selects the pipeline stages.
	Transform transform.Options
	// Mapping is the cacheline-to-chip mapping (rotated by default).
	Mapping transform.ChipMapping
	// CellTypes selects the identification fidelity; NoisyRate applies
	// to CellTypesNoisy.
	CellTypes CellTypeSource
	NoisyRate float64
	// SparedRowFraction marks this fraction of rank rows as remapped by
	// row sparing; spared rows never skip refresh (Section IV-B).
	SparedRowFraction float64
	// Seed drives all stochastic choices.
	Seed uint64
	// Trace, when non-nil, receives typed events from every layer: each
	// rank's module, refresh engine and controller emit into one shard
	// per rank, the shared CPU-side pipeline into a "cpu" shard.
	Trace *trace.Tracer
	// TraceSink, when non-nil, interposes on every shard's event sink as
	// the system is wired: it receives the shard label and the underlying
	// tracer shard (nil when Trace is unset) and returns the sink the
	// layers of that shard will emit into. This is the seam the live
	// introspection plane (internal/obs) tees flight-recorder rings and
	// streaming tails through without the hardware layers knowing; the
	// returned sink must honour the same single-writer-per-shard
	// discipline tracer shards have.
	TraceSink func(label string, shard engine.Tracer) engine.Tracer
	// Progress, when non-nil, receives lock-free atomic progress updates
	// (sim time, windows run, events popped) from the window and event
	// loops; observers read it without touching the simulation.
	Progress *Progress
	// Timeline enables epoch time-series capture: every RunWindow appends
	// one Epoch (window stats + per-window metrics delta) to Timeline().
	Timeline bool
}

// DefaultConfig is the full ZERO-REFRESH design at the given capacity,
// with the access-bit granularity scaled so the written-footprint-to-set
// pressure matches the paper-scale geometry (Section IV-B's 128-row sets
// on a 32 GB rank correspond to 16-row sets at the default 1/1024
// simulation scale).
func DefaultConfig(capacity int64) Config {
	return Config{
		Capacity: capacity,
		RowBytes: 4096,
		Extended: true,
		Refresh: refresh.Config{
			Skip:         true,
			RowsPerAR:    16,
			Stagger:      true,
			StatusInDRAM: true,
		},
		Transform: transform.DefaultOptions(),
		Mapping:   transform.RotatedMapping{},
		Seed:      1,
	}
}

// RankUnit is one rank's hardware: module, refresh engine and controller
// datapath. The value-transformation pipeline is CPU-side and shared.
type RankUnit struct {
	DRAM       *dram.Module
	Engine     *refresh.Engine
	Controller *memctrl.Controller
}

// System is one fully wired simulated machine. The DRAM, Engine and
// Controller fields alias rank 0 for the (default) single-rank
// configuration; multi-rank systems expose all ranks via Ranks.
//
// Each rank is an independent shard: it owns its module, refresh engine
// and controller, and publishes its counters into the system's metrics
// registry under a rank label. RunWindow executes the ranks' retention
// windows concurrently and folds their statistics deterministically.
type System struct {
	Config     Config
	DRAM       *dram.Module
	Engine     *refresh.Engine
	Pipeline   *transform.Pipeline
	Controller *memctrl.Controller
	// Ranks holds every rank; Ranks[0] is aliased by the fields above.
	Ranks []RankUnit

	// Clock is the current simulation time; RunWindow advances it by
	// one retention window.
	Clock dram.Time

	// metrics is the system-wide registry: per-rank child registries
	// under "rankN/" plus the shared CPU-side pipeline under "cpu/".
	metrics *metrics.Registry
	windows *metrics.Counter

	// shards are the tracer shards NewSystem created, in creation order
	// ("cpu", then the ranks); empty when Config.Trace is nil.
	shards []*trace.Shard

	// timeline accumulates one Epoch per retention window when
	// Config.Timeline is set; lastSnap is the snapshot at the previous
	// window boundary, so each epoch's Delta covers exactly one window.
	timeline []Epoch
	lastSnap metrics.Snapshot

	// watch, when set, is invoked after every retention window (and after
	// every bulk idle replay) with the cumulative window count and the
	// clock — the deterministic sim-time cadence the observability
	// plane's watchdogs evaluate on. It runs on the window-merging
	// goroutine, never concurrently with itself; install it with SetWatch
	// before running windows.
	watch func(window int64, now dram.Time)

	// ev holds the event-driven execution state (see events.go); it is
	// armed lazily by the first Schedule/RunUntil call, so
	// dense-only systems pay nothing for it.
	ev eventState
}

// NewSystem builds and wires a system.
func NewSystem(cfg Config) (*System, error) {
	if cfg.Mapping == nil {
		cfg.Mapping = transform.RotatedMapping{}
	}
	if cfg.Ranks == 0 {
		cfg.Ranks = 1
	}
	if cfg.Ranks < 1 || cfg.Capacity%int64(cfg.Ranks) != 0 {
		return nil, fmt.Errorf("core: capacity %d not divisible over %d ranks", cfg.Capacity, cfg.Ranks)
	}
	perRank := cfg.Capacity / int64(cfg.Ranks)
	dcfg := dram.DefaultConfig(perRank)
	if cfg.RowBytes != 0 {
		dcfg.RowBytes = cfg.RowBytes
		dcfg.RowsPerBank = int(perRank / int64(dcfg.Banks) / int64(dcfg.RowBytes))
	}
	if cfg.CellGroupRows != 0 {
		dcfg.CellGroupRows = cfg.CellGroupRows
	}
	if !cfg.Extended {
		dcfg.Timing.TRET = dram.TRETNormal
	}
	if err := dcfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := cfg.Refresh.Resolve(dcfg.RowsPerBank); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}

	// The cell-type layout is a device property, identical across the
	// identically-populated ranks, so one CPU-side map serves them all.
	var types transform.CellTypeMap
	switch cfg.CellTypes {
	case CellTypesExact:
		types = transform.ExactTypes{Cfg: dcfg}
	case CellTypesProbed:
		probe := dram.New(dcfg)
		probed, _ := transform.Identify(probe, 0)
		types = probed
	case CellTypesNoisy:
		types = transform.NewNoisyTypes(transform.ExactTypes{Cfg: dcfg}, dcfg.RowsPerBank, cfg.NoisyRate, int64(cfg.Seed))
	default:
		return nil, fmt.Errorf("core: unknown cell type source %d", cfg.CellTypes)
	}
	pipe := transform.NewPipeline(cfg.Transform, types)

	reg := metrics.NewRegistry()
	sys := &System{Config: cfg, Pipeline: pipe, metrics: reg, windows: reg.Counter("core.windows")}
	reg.Attach("cpu", pipe.Metrics())
	// sinkFor builds one shard's event sink: the tracer shard (when
	// tracing is on), wrapped by the TraceSink interposer (when one is
	// installed). Shard creation order fixes shard ids: "cpu" first, then
	// the ranks in index order, so exports are stable across runs.
	sinkFor := func(label string) engine.Tracer {
		var sh engine.Tracer
		if cfg.Trace != nil {
			shard := cfg.Trace.NewShard(label)
			sys.shards = append(sys.shards, shard)
			sh = shard
		}
		if cfg.TraceSink != nil {
			return cfg.TraceSink(label, sh)
		}
		return sh
	}
	if s := sinkFor("cpu"); s != nil {
		pipe.SetTracer(s)
	}
	for rank := 0; rank < cfg.Ranks; rank++ {
		mod := dram.New(dcfg)
		if cfg.SparedRowFraction > 0 {
			rng := workload.NewSplitMix(workload.Hash(cfg.Seed, uint64(rank), 0x5a7ed))
			for r := 0; r < dcfg.RowsPerBank; r++ {
				if rng.Float64() < cfg.SparedRowFraction {
					mod.MarkSpared(r)
				}
			}
		}
		eng := refresh.NewEngine(mod, cfg.Refresh)
		ctrl := memctrl.NewController(mod, eng, pipe, cfg.Mapping)
		if s := sinkFor(fmt.Sprintf("rank%d", rank)); s != nil {
			mod.SetTracer(s)
			eng.SetTracer(s)
			ctrl.SetTracer(s)
		}
		sys.Ranks = append(sys.Ranks, RankUnit{DRAM: mod, Engine: eng, Controller: ctrl})
		label := fmt.Sprintf("rank%d", rank)
		reg.Attach(label, mod.Metrics())
		reg.Attach(label, eng.Metrics())
		reg.Attach(label, ctrl.Metrics())
	}
	sys.DRAM = sys.Ranks[0].DRAM
	sys.Engine = sys.Ranks[0].Engine
	sys.Controller = sys.Ranks[0].Controller
	if cfg.Progress != nil {
		cfg.Progress.noteSystem()
	}
	return sys, nil
}

// Clone returns an independent system whose simulated state equals s's:
// every rank's DRAM cells and arena layout and refresh tables, every
// counter and histogram, the clock, the timeline and the trace shards. It
// is built by NewSystem(s.Config) and filled by per-layer copies, so it
// allocates what a fresh system brought to the same state would and shares
// no storage with s.
//
// The clone's tracer shards are new shards of Config.Trace, each holding a
// copy of the matching original shard's ring restamped with its own id. A
// Config.TraceSink tee wraps the clone's shards as NewSystem wires them,
// so it sees only the events emitted after the clone. The SetWatch hook is
// not carried over. Clone returns an error when the event loop is armed:
// its pending events are closures over s.
func (s *System) Clone() (*System, error) {
	if s.ev.q != nil {
		return nil, fmt.Errorf("core: cannot clone a system whose event loop is armed")
	}
	c, err := NewSystem(s.Config)
	if err != nil {
		return nil, err
	}
	for i, u := range s.Ranks {
		if err := c.Ranks[i].DRAM.CopyFrom(u.DRAM); err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", i, err)
		}
		if err := c.Ranks[i].Engine.CopyFrom(u.Engine); err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", i, err)
		}
	}
	if err := c.metrics.CopyFrom(s.metrics); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	for i, sh := range s.shards {
		if err := c.shards[i].CopyFrom(sh); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	c.Clock = s.Clock
	c.timeline = append([]Epoch(nil), s.timeline...)
	c.lastSnap = s.lastSnap
	return c, nil
}

// SetWatch installs the per-window observation hook: fn is invoked after
// every retention window (dense or replayed) with the cumulative window
// count and the clock. It is the deterministic sim-time cadence watchdog
// evaluation hangs on. Install before running windows; fn runs on the
// window-merging goroutine.
func (s *System) SetWatch(fn func(window int64, now dram.Time)) { s.watch = fn }

// Metrics returns the system-wide metrics registry: every rank's DRAM,
// refresh-engine and controller counters under "rankN/", and the shared
// pipeline under "cpu/".
func (s *System) Metrics() *metrics.Registry { return s.metrics }

// MetricsSnapshot captures every counter of every layer at this instant.
// It is safe to call while RunWindow executes rank shards concurrently.
func (s *System) MetricsSnapshot() metrics.Snapshot { return s.metrics.Snapshot() }

// rankOf routes a global byte address: ranks are interleaved at rank-
// capacity granularity (rank = addr / perRankCapacity). An address at or
// past the system's capacity is an error.
func (s *System) rankOf(addr uint64) (unit RankUnit, local uint64, err error) {
	per := uint64(s.DRAM.Config().Capacity())
	if addr/per >= uint64(len(s.Ranks)) {
		return RankUnit{}, 0, fmt.Errorf("core: address %#x beyond capacity %#x", addr, per*uint64(len(s.Ranks)))
	}
	return s.Ranks[addr/per], addr % per, nil
}

// WriteLineAt and ReadLineAt route global addresses across ranks.
func (s *System) WriteLineAt(addr uint64, data [64]byte) error {
	u, local, err := s.rankOf(addr)
	if err != nil {
		return err
	}
	return u.Controller.WriteLine(local, data, s.Clock)
}

// ReadLineAt reads the cacheline at a global address.
func (s *System) ReadLineAt(addr uint64) ([64]byte, error) {
	u, local, err := s.rankOf(addr)
	if err != nil {
		return [64]byte{}, err
	}
	return u.Controller.ReadLine(local, s.Clock)
}

// Pages returns the number of row-sized pages across all ranks (pages and
// rank-level rows coincide at the default 4 KB row size).
func (s *System) Pages() int {
	return len(s.Ranks) * int(s.DRAM.Config().Capacity()/int64(s.DRAM.Config().RowBytes))
}

// PageAddr returns the base physical address of a page. It does not check
// the page: an index outside [0, Pages()) can wrap onto another page's
// address, so the page entry points below reject one first.
func (s *System) PageAddr(page int) uint64 {
	return uint64(page) * uint64(s.DRAM.Config().RowBytes)
}

// checkPage rejects a page index outside [0, Pages()).
func (s *System) checkPage(page int) error {
	if n := s.Pages(); page < 0 || page >= n {
		return fmt.Errorf("core: page %d outside [0,%d)", page, n)
	}
	return nil
}

// WritePage stores one full page through the datapath. fill writes every
// word of the page's lines, in line order, straight into the controller's
// staging row: one call per page. A page is one rank-level row, so it is
// stored as one row burst (Controller.WriteRow) with exactly the effects of
// one WriteLineAt per line in line order. A page outside [0, Pages()) is an
// error.
func (s *System) WritePage(page int, fill func(lines []transform.Line)) error {
	if err := s.checkPage(page); err != nil {
		return err
	}
	u, local, err := s.rankOf(s.PageAddr(page))
	if err != nil {
		return err
	}
	return u.Controller.WriteRow(local, fill, s.Clock)
}

// FillPageFromProfile writes benchmark content into a page, addressing the
// profile's (infinite, deterministic) memory image by the page's own
// location. version selects a value generation: refilling with a higher
// version models stores that update values without changing the resident
// data structures.
func (s *System) FillPageFromProfile(prof workload.Profile, page int, contentSeed, version uint64) error {
	gen := prof.Lines(contentSeed)
	return s.FillPage(&gen, page, version)
}

// FillPage is FillPageFromProfile with the caller's generator: a run that
// fills many pages holds one, so consecutive pages continue its last
// chunk's class instead of each resolving its first chunk from scratch.
// The generator writes each line's words into the staging row.
func (s *System) FillPage(gen *workload.LineGen, page int, version uint64) error {
	base := uint64(page) * uint64(s.DRAM.Config().LinesPerRow())
	return s.WritePage(page, func(lines []transform.Line) {
		for i := range lines {
			gen.LineWords(&lines[i], base+uint64(i), version)
		}
	})
}

// CleansePage zero-fills a page through the datapath, as the OS's
// free-time cleansing would (Section III-B): a WritePage of zero lines.
func (s *System) CleansePage(page int) error {
	return s.WritePage(page, clearLines)
}

// clearLines fills a cleansed page: every line zero.
func clearLines(lines []transform.Line) { clear(lines) }

// RunWindow executes one full retention window of refresh activity on
// every rank and advances the clock to its end.
//
// Ranks are independent shards — each engine touches only its own module —
// so their windows run concurrently on up to GOMAXPROCS workers. The
// per-rank results are collected into a rank-indexed slice and folded in
// rank order, so the merged statistics are bit-identical to sequential
// execution regardless of scheduling (the golden-stats test asserts
// this). A panic in a rank shard is recovered by engine.ForEach and
// re-raised here with the rank index attached.
func (s *System) RunWindow() refresh.CycleStats {
	perRank := make([]refresh.CycleStats, len(s.Ranks))
	if err := engine.ForEach(len(s.Ranks), func(i int) error {
		perRank[i] = s.Ranks[i].Engine.RunCycle(s.Clock)
		return nil
	}); err != nil {
		panic(err) // only a *engine.PanicError from a rank shard can land here
	}
	return s.mergeWindow(perRank)
}

// mergeWindow deterministically folds per-rank window statistics in rank
// order and advances the clock.
func (s *System) mergeWindow(perRank []refresh.CycleStats) refresh.CycleStats {
	var total refresh.CycleStats
	total.Start = s.Clock
	for _, st := range perRank {
		total.Add(st)
	}
	s.Clock = total.End
	s.windows.Inc()
	if p := s.Config.Progress; p != nil {
		p.noteWindows(1, 0, s.Clock)
	}
	if s.watch != nil {
		s.watch(s.windows.Load(), s.Clock)
	}
	if s.Config.Timeline {
		snap := s.MetricsSnapshot()
		s.timeline = append(s.timeline, Epoch{
			Window: len(s.timeline),
			Start:  total.Start,
			End:    total.End,
			Stats:  total,
			Delta:  snap.Delta(s.lastSnap),
		})
		s.lastSnap = snap
	}
	return total
}

// ReadPageLine reads one line of a page through the datapath. A page
// outside [0, Pages()) or a line outside [0, RowBytes/64) is an error.
func (s *System) ReadPageLine(page, line int) ([64]byte, error) {
	if err := s.checkPage(page); err != nil {
		return [64]byte{}, err
	}
	if n := s.DRAM.Config().RowBytes / dram.LineBytes; line < 0 || line >= n {
		return [64]byte{}, fmt.Errorf("core: line %d outside [0,%d)", line, n)
	}
	return s.ReadLineAt(s.PageAddr(page) + uint64(line)*dram.LineBytes)
}

// VerifyPage checks that a page's content matches the generator and
// version it was filled from; used by integrity tests and the examples.
func (s *System) VerifyPage(prof workload.Profile, page int, contentSeed, version uint64) error {
	lines := s.DRAM.Config().RowBytes / dram.LineBytes
	base := uint64(page) * uint64(lines)
	gen := prof.Lines(contentSeed)
	for ln := 0; ln < lines; ln++ {
		got, err := s.ReadPageLine(page, ln)
		if err != nil {
			return err
		}
		want := gen.Line(base+uint64(ln), version)
		if got != want {
			return fmt.Errorf("core: page %d line %d corrupted", page, ln)
		}
	}
	return nil
}

// DecayEvents reports retention failures observed so far across all ranks
// (must stay zero under correct operation).
func (s *System) DecayEvents() int64 {
	var n int64
	for _, u := range s.Ranks {
		n += u.DRAM.Stats().DecayEvents
	}
	return n
}
