package core

import (
	"math"
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

// TestSteadyStateAllocFree pins a page fill from a profile allocation-free
// once the pages' rows are materialized: the line generator and the
// per-line writes live on the stack.
// TestSteadyStateAllocFree pins the write paths of a warmed system with
// tracing off at 0 allocations per operation: a page fill (one row burst)
// and a single line through WriteLineAt, whose controller write notes the
// refresh engine's access bit.
func TestSteadyStateAllocFree(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	const pages = 16
	for p := 0; p < pages; p++ {
		if err := sys.FillPageFromProfile(prof, p, 1, 0); err != nil {
			t.Fatal(err)
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
