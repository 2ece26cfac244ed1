package core

import (
	"math"
	"strings"
	"testing"

	"zerorefresh/internal/refresh"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
	"zerorefresh/internal/workload"
)

func smallConfig() Config {
	cfg := DefaultConfig(4 << 20) // 1024 pages
	return cfg
}

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sys.Pages() != 1024 {
		t.Fatalf("Pages = %d, want 1024", sys.Pages())
	}
	if !sys.Engine.Config().Skip {
		t.Fatal("default system must have skipping enabled")
	}
	if sys.Pipeline.Options() != transform.DefaultOptions() {
		t.Fatal("default system must run the full pipeline")
	}
}

// TestNewSystemRejectsBadGeometry pins that configurations built from user
// input fail with an error, never a panic, whichever layer's rule they
// break.
func TestNewSystemRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
	}{
		{"rows not divisible by RowsPerAR", func() Config { return DefaultConfig(1<<20 + 256<<10) }},
		{"RowsPerAR 3", func() Config { c := smallConfig(); c.Refresh.RowsPerAR = 3; return c }},
		{"negative ranks", func() Config { c := smallConfig(); c.Ranks = -1; return c }},
		{"three ranks", func() Config { c := smallConfig(); c.Ranks = 3; return c }},
		{"zero capacity", func() Config { return DefaultConfig(0) }},
		{"negative capacity", func() Config { return DefaultConfig(-4 << 20) }},
		{"RowBytes 1000", func() Config { c := smallConfig(); c.RowBytes = 1000; return c }},
		{"RowBytes 1 MB", func() Config { c := smallConfig(); c.RowBytes = 1 << 20; return c }},
		{"negative CellGroupRows", func() Config { c := smallConfig(); c.CellGroupRows = -1; return c }},
		{"unknown cell types", func() Config { c := smallConfig(); c.CellTypes = 9; return c }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewSystem panicked: %v", r)
				}
			}()
			if _, err := NewSystem(tc.cfg()); err == nil {
				t.Fatal("invalid configuration accepted")
			}
		})
	}
}

// FuzzNewSystem builds systems from adversarial configurations: any row
// size, cell-group period, rows per auto-refresh and cell-type source, noisy
// and spared fractions that may be NaN or infinite, and the refresh design
// switches. Capacity stays at most 64 MB and ranks at most 4, so no input
// allocates gigabytes or starts many goroutines. Each input must be
// rejected with an error, or build a system that fills page 0 and runs one
// retention window without a panic.
func FuzzNewSystem(f *testing.F) {
	f.Add(int64(4<<20), 1, 4096, 512, 16, 0, 0.0, 0.0, uint8(0))
	f.Add(int64(4<<20), 2, 2048, 8, 64, 2, math.NaN(), math.Inf(1), uint8(5))
	f.Add(int64(1<<20+256<<10), 1, 0, 0, 0, 1, 0.5, 0.1, uint8(10))
	f.Add(int64(-1), -1, -64, -1, -3, 9, math.Inf(-1), math.NaN(), uint8(31))
	f.Add(int64(8<<20), 4, 64, 1, 1, 2, 1.0, 1.0, uint8(18))
	f.Add(int64(64<<20), 1, 4<<20, 512, 0, 0, 0.0, 0.0, uint8(0)) // 65536 words per chip-row: past the charge count
	prof, _ := workload.ByName("mcf")
	f.Fuzz(func(t *testing.T, capacity int64, ranks, rowBytes, cellGroupRows, rowsPerAR, cellTypes int, noisy, spared float64, flags uint8) {
		if capacity > 64<<20 || ranks > 4 {
			t.Skip("beyond the fuzzed scale")
		}
		cfg := DefaultConfig(capacity)
		cfg.Ranks, cfg.RowBytes, cfg.CellGroupRows = ranks, rowBytes, cellGroupRows
		cfg.Refresh.RowsPerAR = rowsPerAR
		cfg.CellTypes, cfg.NoisyRate, cfg.SparedRowFraction = CellTypeSource(cellTypes), noisy, spared
		cfg.Refresh.AllBank = flags&1 != 0
		cfg.Refresh.PerChipStatus = flags&2 != 0
		cfg.Refresh.StatusInDRAM = flags&4 == 0
		cfg.Refresh.Stagger = flags&8 == 0
		cfg.Extended = flags&16 == 0
		sys, err := NewSystem(cfg)
		if err != nil {
			return
		}
		if err := sys.FillPageFromProfile(prof, 0, 1, 0); err != nil {
			t.Fatalf("page 0 of an accepted system: %v", err)
		}
		sys.RunWindow()
	})
}

// TestNewSystemRejectsRowPastChargeCount checks that a row whose chip-rows
// hold more words than a chip-row's 16-bit charge count describes is an
// error from NewSystem, not a module that miscounts.
func TestNewSystemRejectsRowPastChargeCount(t *testing.T) {
	cfg := DefaultConfig(64 << 20)
	cfg.RowBytes = 4 << 20
	if _, err := NewSystem(cfg); err == nil || !strings.Contains(err.Error(), "charge count") {
		t.Fatalf("NewSystem with %d-byte rows: err = %v, want the charge-count limit", cfg.RowBytes, err)
	}
}

// TestMissedRefreshIsDetected withholds refresh from a populated system for
// three retention windows and requires every layer that watches retention
// to see it: the integrity probe counts each charged chip-row as overdue
// before any access, every page reads back corrupted, each of those
// chip-rows counts one decay event as its read activates it, and the probe
// still counts them afterwards through their decayed flags.
func TestMissedRefreshIsDetected(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	const pages = 64
	for p := 0; p < pages; p++ {
		if err := sys.FillPageFromProfile(prof, p, 7, 0); err != nil {
			t.Fatal(err)
		}
	}
	sys.RunWindow()
	sys.Clock += 3 * sys.DRAM.Config().Timing.TRET
	const charged = 251 // chip-rows the 64 mcf pages leave charged
	if v := sys.DRAM.CheckIntegrity(sys.Clock); v != charged {
		t.Fatalf("integrity probe before any access = %d, want %d", v, charged)
	}
	for p := 0; p < pages; p++ {
		if err := sys.VerifyPage(prof, p, 7, 0); err == nil {
			t.Fatalf("page %d verified after three retention windows without refresh", p)
		}
	}
	if n := sys.DecayEvents(); n != charged {
		t.Fatalf("DecayEvents = %d, want %d", n, charged)
	}
	if v := sys.DRAM.CheckIntegrity(sys.Clock); v != charged {
		t.Fatalf("integrity probe after the reads = %d, want %d", v, charged)
	}
}

func TestNormalTemperatureWindow(t *testing.T) {
	cfg := smallConfig()
	cfg.Extended = false
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sys.DRAM.Config().Timing.TRET; got != 64_000_000 {
		t.Fatalf("TRET = %dns, want 64ms", got)
	}
}

func TestFillVerifyRoundTrip(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("gcc")
	for _, page := range []int{0, 1, 513, 1023} {
		if err := sys.FillPageFromProfile(prof, page, 7, 0); err != nil {
			t.Fatal(err)
		}
		if err := sys.VerifyPage(prof, page, 7, 0); err != nil {
			t.Fatal(err)
		}
	}
	// A different version must not verify against version 0 content
	// unless the page happens to be all-zero.
	if err := sys.FillPageFromProfile(prof, 0, 7, 3); err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyPage(prof, 0, 7, 3); err != nil {
		t.Fatal(err)
	}
}

func TestCleansedPagesSkipAndSurvive(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	// Fill everything, then cleanse the second half.
	for p := 0; p < sys.Pages(); p++ {
		if err := sys.FillPageFromProfile(prof, p, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	for p := sys.Pages() / 2; p < sys.Pages(); p++ {
		if err := sys.CleansePage(p); err != nil {
			t.Fatal(err)
		}
	}
	sys.RunWindow() // learn
	st := sys.RunWindow()
	// At least the cleansed half must skip (plus zero-classes of the
	// filled half).
	if st.NormalizedRefresh() > 0.55 {
		t.Fatalf("normalized refresh %.3f, want < 0.55 with half memory cleansed", st.NormalizedRefresh())
	}
	// Several more windows: no decay, data intact, zeros readable.
	for i := 0; i < 4; i++ {
		sys.RunWindow()
	}
	if sys.DecayEvents() != 0 {
		t.Fatal("skipping corrupted data")
	}
	if err := sys.VerifyPage(prof, 3, 1, 0); err != nil {
		t.Fatal(err)
	}
	got, err := sys.ReadPageLine(sys.Pages()-1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got != ([64]byte{}) {
		t.Fatal("cleansed page lost its zeros")
	}
}

func TestProbedCellTypesSystem(t *testing.T) {
	cfg := smallConfig()
	cfg.CellTypes = CellTypesProbed
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("sphinx3")
	if err := sys.FillPageFromProfile(prof, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.VerifyPage(prof, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
}

func TestNoisyCellTypesLoseSkipsNotData(t *testing.T) {
	exact := smallConfig()
	noisy := smallConfig()
	noisy.CellTypes = CellTypesNoisy
	noisy.NoisyRate = 0.5

	var norms [2]float64
	for i, cfg := range []Config{exact, noisy} {
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prof, _ := workload.ByName("gemsFDTD")
		for p := 0; p < sys.Pages(); p++ {
			if err := sys.FillPageFromProfile(prof, p, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		sys.RunWindow()
		norms[i] = sys.RunWindow().NormalizedRefresh()
		if sys.DecayEvents() != 0 {
			t.Fatal("decay under cell-type misprediction")
		}
		// Data always readable regardless of prediction quality.
		if err := sys.VerifyPage(prof, 10, 1, 0); err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
	}
	if norms[1] <= norms[0] {
		t.Fatalf("misprediction should reduce skipping: exact %.3f, noisy %.3f", norms[0], norms[1])
	}
}

func TestAblationMappingsStillLossless(t *testing.T) {
	for _, m := range []transform.ChipMapping{
		transform.RotatedMapping{}, transform.DirectMapping{}, transform.ByteScatterMapping{},
	} {
		cfg := smallConfig()
		cfg.Mapping = m
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		prof, _ := workload.ByName("bzip2")
		if err := sys.FillPageFromProfile(prof, 42, 9, 0); err != nil {
			t.Fatal(err)
		}
		if err := sys.VerifyPage(prof, 42, 9, 0); err != nil {
			t.Fatalf("mapping %s: %v", m.Name(), err)
		}
	}
}

func TestConventionalEngineNeverSkips(t *testing.T) {
	cfg := smallConfig()
	cfg.Refresh = refresh.Config{Skip: false, RowsPerAR: 8}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sys.RunWindow()
	st := sys.RunWindow()
	if st.Skipped != 0 {
		t.Fatalf("conventional system skipped %d steps", st.Skipped)
	}
}

func TestClockAdvances(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := sys.RunWindow()
	if sys.Clock != st.End || sys.Clock == 0 {
		t.Fatalf("clock %d, window end %d", sys.Clock, st.End)
	}
}

func TestMultiRankSystem(t *testing.T) {
	cfg := DefaultConfig(8 << 20)
	cfg.Ranks = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.Ranks) != 2 {
		t.Fatalf("ranks = %d", len(sys.Ranks))
	}
	if sys.Pages() != 2048 { // 8 MB total across two 4 MB ranks
		t.Fatalf("Pages = %d, want 2048", sys.Pages())
	}
	prof, _ := workload.ByName("gcc")
	// Pages in both ranks round trip.
	for _, page := range []int{0, 1023, 1024, 2047} {
		if err := sys.FillPageFromProfile(prof, page, 3, 0); err != nil {
			t.Fatal(err)
		}
		if err := sys.VerifyPage(prof, page, 3, 0); err != nil {
			t.Fatalf("page %d: %v", page, err)
		}
	}
	// Windows aggregate both ranks' steps.
	st := sys.RunWindow()
	wantSteps := int64(2 * 8 * (4 << 20) / 8 / 4096)
	if st.Steps != wantSteps {
		t.Fatalf("Steps = %d, want %d", st.Steps, wantSteps)
	}
	st = sys.RunWindow()
	if st.NormalizedRefresh() >= 1 {
		t.Fatal("multi-rank system never skipped")
	}
	if sys.DecayEvents() != 0 {
		t.Fatal("decay in multi-rank system")
	}
}

func TestMultiRankMatchesSingleRankRatios(t *testing.T) {
	// The same content at the same total capacity must produce the same
	// normalized refresh whether it sits in one rank or two.
	prof, _ := workload.ByName("sphinx3")
	norm := func(ranks int) float64 {
		cfg := DefaultConfig(4 << 20)
		cfg.Ranks = ranks
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for p := 0; p < sys.Pages(); p++ {
			if err := sys.FillPageFromProfile(prof, p, 1, 0); err != nil {
				t.Fatal(err)
			}
		}
		sys.RunWindow()
		return sys.RunWindow().NormalizedRefresh()
	}
	one, two := norm(1), norm(2)
	if math.Abs(one-two) > 0.03 {
		t.Fatalf("rank split changed the ratio: %.3f vs %.3f", one, two)
	}
}

func TestMultiRankRejectsBadSplit(t *testing.T) {
	cfg := DefaultConfig(4 << 20)
	cfg.Ranks = 3 // does not divide 4 MB evenly into valid geometry
	if _, err := NewSystem(cfg); err == nil {
		t.Fatal("invalid rank split accepted")
	}
}

// TestBeyondCapacityIsAnError pins the address routing of a system: a line
// or page at or past its capacity is an error on every datapath entry, as
// an out-of-range address is for the controller, never a panic. So is a
// page whose address wraps onto page 0 (1<<52 pages of 4 KB is 2^64
// bytes) and a line outside its page, which would alias a neighbour's.
func TestBeyondCapacityIsAnError(t *testing.T) {
	sys, err := NewSystem(DefaultConfig(2 << 20))
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	if err := sys.FillPageFromProfile(prof, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	capacity := uint64(2 << 20)
	var line [64]byte
	for _, addr := range []uint64{capacity, capacity + 64, 1 << 40} {
		if err := sys.WriteLineAt(addr, line); err == nil {
			t.Errorf("WriteLineAt(%#x) accepted", addr)
		}
		if _, err := sys.ReadLineAt(addr); err == nil {
			t.Errorf("ReadLineAt(%#x) accepted", addr)
		}
	}
	for _, page := range []int{sys.Pages(), -1, 1 << 52} {
		for name, op := range map[string]func() error{
			"CleansePage":         func() error { return sys.CleansePage(page) },
			"FillPageFromProfile": func() error { return sys.FillPageFromProfile(prof, page, 1, 0) },
			"VerifyPage":          func() error { return sys.VerifyPage(prof, page, 1, 0) },
			"ReadPageLine":        func() error { _, err := sys.ReadPageLine(page, 0); return err },
		} {
			if err := op(); err == nil {
				t.Errorf("%s(page %d) accepted", name, page)
			}
		}
	}
	// Line 64 of page 0 is line 0 of page 1, and line -1 of page 1 is
	// line 63 of page 0.
	for _, c := range []struct{ page, line int }{{0, 64}, {1, -1}} {
		if _, err := sys.ReadPageLine(c.page, c.line); err == nil {
			t.Errorf("ReadPageLine(%d, %d) accepted", c.page, c.line)
		}
	}
	if err := sys.VerifyPage(prof, 0, 1, 0); err != nil {
		t.Errorf("page 0 after the rejected writes: %v", err)
	}
}

// TestSteadyStateAllocFree pins the write paths of a warmed system at 0
// allocations per operation: a page fill (one row burst), a single line
// through WriteLineAt, whose controller write notes the refresh engine's
// access bit, and a page cleanse. The warm-up fills, cleanses and refills
// every page once, so the arena's free lists already hold room for the
// slots a cleanse releases. The paths run with tracing off, and under
// "traced" into 4096-event rings that the warm-up has wrapped, so every
// chunk is allocated and emission reuses them.
func TestSteadyStateAllocFree(t *testing.T) {
	checkSteadyStateAllocFree(t, smallConfig())
	cfg := smallConfig()
	cfg.Trace = trace.New(1 << 12)
	t.Run("traced", func(t *testing.T) { checkSteadyStateAllocFree(t, cfg) })
}

func checkSteadyStateAllocFree(t *testing.T, cfg Config) {
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	const pages = 16
	fill := func(p int) error { return sys.FillPageFromProfile(prof, p, 1, 0) }
	warm := []func(int) error{fill, sys.CleansePage, fill}
	for pass := 0; pass < len(warm) || !ringsWrapped(sys); pass++ {
		if pass == 64 {
			t.Fatal("the trace rings have not wrapped after 64 warm-up passes")
		}
		for p := 0; p < pages; p++ {
			if err := warm[min(pass, len(warm)-1)](p); err != nil {
				t.Fatal(err)
			}
		}
	}
	line := lineWriteData()
	n := 0
	for _, c := range []struct {
		name string
		op   func() error
	}{
		{"FillPageFromProfile", func() error { return sys.FillPageFromProfile(prof, n%pages, 1, uint64(n)) }},
		{"WriteLineAt", func() error { return sys.WriteLineAt(uint64(n%1024)*64, line) }},
		{"CleansePage", func() error { return sys.CleansePage(n % pages) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(200, func() {
				if err := c.op(); err != nil {
					t.Fatal(err)
				}
				n++
			})
			if allocs != 0 {
				t.Errorf("%s allocated %.1f times per op", c.name, allocs)
			}
		})
	}
}

// ringsWrapped reports whether every trace shard of sys has overwritten an
// event (true for a system without a tracer).
func ringsWrapped(sys *System) bool {
	for _, sh := range sys.shards {
		if sh.Dropped() == 0 {
			return false
		}
	}
	return true
}

// lineWriteData is the 64-byte payload of the line-write alloc test and
// benchmark.
func lineWriteData() [64]byte {
	var data [64]byte
	for i := range data {
		data[i] = byte(i * 7)
	}
	return data
}

// BenchmarkTracerOverhead measures what event tracing costs the write
// datapath (transform encode + controller writeback + DRAM charge
// transitions): the same loop against the nil-sink fast path every emit
// site guards on, and against an enabled ring tracer.
func BenchmarkTracerOverhead(b *testing.B) {
	run := func(tr *trace.Tracer) func(*testing.B) {
		return func(b *testing.B) {
			cfg := smallConfig()
			cfg.Trace = tr
			sys, err := NewSystem(cfg)
			if err != nil {
				b.Fatal(err)
			}
			data := lineWriteData()
			// Touch every target line once so lazily materialized row
			// storage is allocated before measurement starts.
			for i := 0; i < 1024; i++ {
				if err := sys.WriteLineAt(uint64(i)*64, data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.WriteLineAt(uint64(i%1024)*64, data); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("nil", run(nil))
	b.Run("enabled", run(trace.New(1<<12)))
}
