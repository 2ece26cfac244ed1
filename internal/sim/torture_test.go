package sim

import (
	"fmt"
	"testing"

	"zerorefresh/internal/core"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/ostrace"
	"zerorefresh/internal/workload"
)

// lineCore is a test-local core: it stores versioned benchmark lines into
// its region of memory one line at a time through WriteLineAt and reads
// them back through ReadLineAt, so the line path's transform, inverse
// transform and refresh bookkeeping are checked against the lines' exact
// content.
type lineCore struct {
	sys     *core.System
	gen     workload.LineGen
	rng     *workload.SplitMix
	base    uint64   // global line index of the region's first line
	version []uint64 // per line of the region: last stored version, 0 = never
	stored  []int    // region offsets of stored lines, in first-store order
}

func newLineCore(sys *core.System, prof workload.Profile, seed, baseAddr uint64, lines int) *lineCore {
	return &lineCore{
		sys:     sys,
		gen:     prof.Lines(seed),
		rng:     workload.NewSplitMix(seed),
		base:    baseAddr / dram.LineBytes,
		version: make([]uint64, lines),
	}
}

// store writes n lines chosen within the first span lines of the region,
// each one version past what the line last held.
func (c *lineCore) store(span, n int) error {
	for i := 0; i < n; i++ {
		off := c.rng.Intn(span)
		if c.version[off] == 0 {
			c.stored = append(c.stored, off)
		}
		c.version[off]++
		line := c.base + uint64(off)
		if err := c.sys.WriteLineAt(line*dram.LineBytes, c.gen.Line(line, c.version[off])); err != nil {
			return err
		}
	}
	return nil
}

// check reads the line at region offset off back and compares it with the
// version last stored there.
func (c *lineCore) check(off int) error {
	line := c.base + uint64(off)
	got, err := c.sys.ReadLineAt(line * dram.LineBytes)
	if err != nil {
		return err
	}
	if got != c.gen.Line(line, c.version[off]) {
		return fmt.Errorf("line %#x reads back corrupted (version %d)", line*dram.LineBytes, c.version[off])
	}
	return nil
}

// sample checks n stored lines picked at random.
func (c *lineCore) sample(n int) error {
	for i := 0; i < n && len(c.stored) > 0; i++ {
		if err := c.check(c.stored[c.rng.Intn(len(c.stored))]); err != nil {
			return err
		}
	}
	return nil
}

// checkAll checks every line the core ever stored, in address order.
func (c *lineCore) checkAll() error {
	for off, v := range c.version {
		if v == 0 {
			continue
		}
		if err := c.check(off); err != nil {
			return err
		}
	}
	return nil
}

// TestTortureIntegration is the capstone integration test: a multi-rank
// system under simultaneous pressure from (a) an OS allocator chasing a
// datacenter utilization trace with zero-on-free, and (b) four cores
// storing versioned lines of different benchmarks one at a time and
// reading samples back every window — across many retention windows, with
// the refresh engine skipping as aggressively as it can. Everything must
// stay bit-exact.
//
// Window w stores only within the first (w+1)/10 of each core's region,
// so every window charges rows the previous window sensed as discharged:
// a line store that failed to tell the refresh engine its row was written
// would let the next window skip the new charge, and it would decay.
func TestTortureIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("torture run")
	}
	cfg := core.DefaultConfig(16 << 20)
	cfg.Ranks = 2
	cfg.CellGroupRows = 128 // both cell types present in each rank
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}

	prof, _ := workload.ByName("tpch-q5")
	trace := ostrace.Google

	// Four cores run different benchmarks in the low 10 MB of memory;
	// the allocator churns the rest.
	const windows = 10
	region := 10 << 20
	coreBenches := []string{"tpch-q5", "tpch-q1", "bwaves", "gcc"}
	coreLines := region / len(coreBenches) / dram.LineBytes
	cores := make([]*lineCore, len(coreBenches))
	for c, name := range coreBenches {
		bprof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		cores[c] = newLineCore(sys, bprof, uint64(c)+1, uint64(c*coreLines*dram.LineBytes), coreLines)
	}

	quarter := region / 4096
	churnPages := sys.Pages() - quarter
	alloc := ostrace.NewAllocator(churnPages)
	filledVersion := map[int]uint64{}
	window := 0
	alloc.OnAllocate = func(p int) {
		page := quarter + p
		v := uint64(window)
		if err := sys.FillPageFromProfile(prof, page, 99, v); err != nil {
			t.Fatal(err)
		}
		filledVersion[page] = v
	}
	alloc.OnFree = func(p int) {
		page := quarter + p
		if err := sys.CleansePage(page); err != nil {
			t.Fatal(err)
		}
		delete(filledVersion, page)
	}

	var skippedTotal int64
	for window = 0; window < windows; window++ {
		if err := alloc.SetTargetFraction(trace.Utilization(7, window)); err != nil {
			t.Fatal(err)
		}
		for c, lc := range cores {
			if err := lc.store((window+1)*coreLines/windows, 3000); err != nil {
				t.Fatalf("window %d core %d: %v", window, c, err)
			}
		}
		st := sys.RunWindow()
		skippedTotal += st.Skipped
		for c, lc := range cores {
			if err := lc.sample(200); err != nil {
				t.Fatalf("window %d core %d: %v", window, c, err)
			}
		}
	}

	// Invariants after the storm:
	if sys.DecayEvents() != 0 {
		t.Fatal("retention failure under combined pressure")
	}
	if skippedTotal == 0 {
		t.Fatal("nothing was ever skipped")
	}
	// Every line a core stored holds its last version.
	for c, lc := range cores {
		if err := lc.checkAll(); err != nil {
			t.Fatalf("core %d: %v", c, err)
		}
	}
	// Allocated churn pages hold their exact content version, and free
	// churn pages read as zeros.
	allocated := alloc.AllocatedPageIndices()
	for _, p := range allocated {
		if err := sys.VerifyPage(prof, quarter+p, 99, filledVersion[quarter+p]); err != nil {
			t.Fatal(err)
		}
	}
	for p := len(allocated); p < churnPages; p++ {
		line, err := sys.ReadPageLine(quarter+p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if line != ([64]byte{}) {
			t.Fatalf("free page %d not zero", quarter+p)
		}
	}
	if len(allocated) == 0 || len(allocated) == churnPages {
		t.Fatalf("weak coverage: %d of %d churn pages allocated", len(allocated), churnPages)
	}
}
