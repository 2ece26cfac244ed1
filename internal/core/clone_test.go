package core

import (
	"reflect"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
	"zerorefresh/internal/workload"
)

// cloneCase is one configuration the clone tests build: small cell groups
// put anti-cell rows in every rank, and a raw transform stores the zero
// line charged on them, so cleansing those pages leaves them in arena
// slots.
type cloneCase struct {
	name     string
	ranks    int
	spared   float64
	raw      bool
	traced   bool
	timeline bool
}

func cloneCases() []cloneCase {
	return []cloneCase{
		{name: "1rank-traced-timeline", ranks: 1, traced: true, timeline: true},
		{name: "2ranks-spared-traced", ranks: 2, spared: 0.05, traced: true},
		{name: "2ranks-raw-untraced", ranks: 2, raw: true},
		{name: "1rank-raw-traced", ranks: 1, raw: true, traced: true},
	}
}

// build wires a fresh system of the case. The trace rings are small enough
// to wrap, so copied rings must carry their drop counts.
func (c cloneCase) build(t *testing.T) *System {
	t.Helper()
	return c.buildFrom(t, nil)
}

// buildFrom is build with the system's DRAM storage taken from pool.
func (c cloneCase) buildFrom(t *testing.T, pool *dram.Pool) *System {
	t.Helper()
	cfg := DefaultConfig(2 << 20)
	cfg.Ranks = c.ranks
	cfg.CellGroupRows = 8
	cfg.Refresh.RowsPerAR = 4
	cfg.SparedRowFraction = c.spared
	cfg.Timeline = c.timeline
	if c.raw {
		cfg.Transform = transform.Options{}
	}
	if c.traced {
		cfg.Trace = trace.New(1 << 12)
	}
	sys, err := NewPooledSystem(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// populateForClone fills three quarters of the pages and cleanses a
// stripe of them, as an allocation followed by a few frees would.
func populateForClone(t *testing.T, sys *System, prof workload.Profile) {
	t.Helper()
	n := sys.Pages()
	for p := 0; p < n*3/4; p++ {
		if err := sys.FillPageFromProfile(prof, p, 7, 0); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < n; p += 9 {
		if err := sys.CleansePage(p); err != nil {
			t.Fatal(err)
		}
	}
}

// driveWindow is one window of activity: fresh values on a spread of
// pages, a cleanse, then the retention window.
func driveWindow(t *testing.T, sys *System, prof workload.Profile, w int) refresh.CycleStats {
	t.Helper()
	n := sys.Pages()
	for _, p := range []int{w % n, (7*w + 3) % n, n/2 + w%7, n - 1 - w} {
		if err := sys.FillPageFromProfile(prof, p, 7, uint64(w)+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.CleansePage((5*w + 1) % n); err != nil {
		t.Fatal(err)
	}
	return sys.RunWindow()
}

// requireSameState fails unless a and b are observationally identical:
// the metrics snapshot (dram.storage.* included), the timeline, every
// shard's label, drop count and held events (shard ids aside), and every
// line read back through the datapath. The read-back runs on both
// systems, so they stay identical.
func requireSameState(t *testing.T, a, b *System) {
	t.Helper()
	if sa, sb := a.MetricsSnapshot(), b.MetricsSnapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("metrics diverged:\n%v\nvs\n%v", sa, sb)
	}
	if !reflect.DeepEqual(a.Timeline(), b.Timeline()) {
		t.Fatal("timelines diverged")
	}
	if len(a.shards) != len(b.shards) {
		t.Fatalf("%d vs %d trace shards", len(a.shards), len(b.shards))
	}
	for i := range a.shards {
		sa, sb := a.shards[i], b.shards[i]
		if sa.Label() != sb.Label() || sa.Dropped() != sb.Dropped() {
			t.Fatalf("shard %d: %q dropped %d vs %q dropped %d", i, sa.Label(), sa.Dropped(), sb.Label(), sb.Dropped())
		}
		ea, eb := sa.Events(), sb.Events()
		for j := range ea {
			if ea[j].Shard != sa.ID() {
				t.Fatalf("shard %d holds an event stamped %d, its id is %d", i, ea[j].Shard, sa.ID())
			}
			ea[j].Shard = sb.ID()
		}
		if !reflect.DeepEqual(ea, eb) {
			t.Fatalf("shard %d (%s) holds different events", i, sa.Label())
		}
	}
	if a.Clock != b.Clock {
		t.Fatalf("clocks diverged: %d vs %d", a.Clock, b.Clock)
	}
	for addr := uint64(0); addr < uint64(a.Pages())*uint64(a.DRAM.Config().RowBytes); addr += dram.LineBytes {
		la, err := a.ReadLineAt(addr)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := b.ReadLineAt(addr)
		if err != nil {
			t.Fatal(err)
		}
		if la != lb {
			t.Fatalf("line at %#x diverged", addr)
		}
	}
}

// TestCloneMatchesFreshPopulate clones systems right after populating them
// and after a few windows, and drives each clone and an independently
// built twin through the same writes, cleanses and windows: the two must
// stay identical in every observable, window statistics included.
func TestCloneMatchesFreshPopulate(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	for _, c := range cloneCases() {
		for _, after := range []int{0, 2} {
			base, twin := c.build(t), c.build(t)
			populateForClone(t, base, prof)
			populateForClone(t, twin, prof)
			for w := 0; w < after; w++ {
				driveWindow(t, base, prof, w)
				driveWindow(t, twin, prof, w)
			}
			clone, err := base.Clone()
			if err != nil {
				t.Fatalf("%s after %d windows: %v", c.name, after, err)
			}
			for w := after; w < after+3; w++ {
				if a, b := driveWindow(t, clone, prof, w), driveWindow(t, twin, prof, w); a != b {
					t.Fatalf("%s after %d windows: window %d stats diverged:\n%+v\n%+v", c.name, after, w, a, b)
				}
			}
			if clone.DecayEvents() != 0 {
				t.Fatalf("%s: the clone lost data", c.name)
			}
			requireSameState(t, clone, twin)
		}
	}
}

// TestCloneIsIndependent drives a system and its clone through different
// writes and windows, each next to a fresh twin driven the same way: a
// store, a cleanse or a refresh on one side must leave the other's
// metrics, bytes and trace untouched. Both sides write other values into
// the same two pages: a filled one and a cleansed one whose zero fill is
// stored charged. Identical slot layouts make both sides store into the
// same slot indices, so any storage the two shared would show up as the
// other side's values.
func TestCloneIsIndependent(t *testing.T) {
	prof, _ := workload.ByName("sphinx3")
	c := cloneCase{ranks: 1, raw: true, traced: true}
	x, fx, fy := c.build(t), c.build(t), c.build(t)
	for _, sys := range []*System{x, fx, fy} {
		populateForClone(t, sys, prof)
	}
	y, err := x.Clone()
	if err != nil {
		t.Fatal(err)
	}
	// The cleansed pages on anti-cell rows hold the raw zero line charged,
	// in x's slots and in the copies of them y holds.
	var cleansed []int
	for p := 0; p < x.Pages(); p += 9 {
		loc, err := x.Controller.AddressMap().Locate(x.PageAddr(p))
		if err != nil {
			t.Fatal(err)
		}
		if x.DRAM.Config().CellTypeOf(loc.Row) == dram.AntiCell {
			cleansed = append(cleansed, p)
		}
	}
	if len(cleansed) == 0 {
		t.Fatal("no cleansed page lies on anti-cell rows")
	}
	drive := func(sys *System, version uint64) {
		for _, page := range []int{cleansed[0], 1} {
			if err := sys.FillPageFromProfile(prof, page, 7, version); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.CleansePage(2); err != nil {
			t.Fatal(err)
		}
		sys.RunWindow()
	}
	drive(y, 5)
	drive(fy, 5)
	drive(x, 6)
	drive(fx, 6)
	requireSameState(t, x, fx)
	requireSameState(t, y, fy)
}

// TestRecycledStorageMatchesFresh builds systems from a pool that holds
// the recycled storage of a populated system, clones one and recycles it,
// and drives the clone next to an unpooled twin: the two must stay
// identical in every observable. A recycled system keeps its metrics,
// timeline and trace shards as they were, and cannot be cloned.
func TestRecycledStorageMatchesFresh(t *testing.T) {
	prof, _ := workload.ByName("mcf")
	for _, c := range cloneCases() {
		pool := dram.NewPool()
		first := c.buildFrom(t, pool)
		populateForClone(t, first, prof)
		driveWindow(t, first, prof, 0)
		snap, timeline := first.MetricsSnapshot(), first.Timeline()
		var events [][]trace.Event
		for _, sh := range first.shards {
			events = append(events, sh.Events())
		}
		first.Recycle()
		if !reflect.DeepEqual(first.MetricsSnapshot(), snap) || !reflect.DeepEqual(first.Timeline(), timeline) {
			t.Fatalf("%s: Recycle moved the metrics or the timeline", c.name)
		}
		for i, sh := range first.shards {
			if !reflect.DeepEqual(sh.Events(), events[i]) {
				t.Fatalf("%s: Recycle moved trace shard %s", c.name, sh.Label())
			}
		}
		if _, err := first.Clone(); err == nil {
			t.Fatalf("%s: clone of a recycled system succeeded", c.name)
		}

		base, twin := c.buildFrom(t, pool), c.build(t)
		for _, sys := range []*System{base, twin} {
			populateForClone(t, sys, prof)
			driveWindow(t, sys, prof, 0)
		}
		clone, err := base.Clone()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		base.Recycle()
		for w := 1; w < 4; w++ {
			if a, b := driveWindow(t, clone, prof, w), driveWindow(t, twin, prof, w); a != b {
				t.Fatalf("%s: window %d stats diverged:\n%+v\n%+v", c.name, w, a, b)
			}
		}
		requireSameState(t, clone, twin)
	}
}

// TestCloneRejectsArmedEventLoop: pending events are closures over the
// original system, so a system whose event loop is armed cannot be cloned.
func TestCloneRejectsArmedEventLoop(t *testing.T) {
	sys, err := NewSystem(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Clone(); err != nil {
		t.Fatalf("clone of an idle system: %v", err)
	}
	sys.ScheduleWriteBurst(0, func(dram.Time) {})
	if _, err := sys.Clone(); err == nil {
		t.Fatal("clone of a system with an armed event loop succeeded")
	}
}

// TestCloneLeavesTeesAndWatchBehind: a TraceSink tee wraps the clone's own
// shards and sees only what the clone emits, and the SetWatch hook stays
// with the original.
func TestCloneLeavesTeesAndWatchBehind(t *testing.T) {
	counts := map[string]int{}
	cfg := smallConfig()
	cfg.Trace = trace.New(1 << 10)
	cfg.TraceSink = func(label string, shard engine.Tracer) engine.Tracer {
		return countingSink{inner: shard, n: counts, key: label}
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	if err := sys.FillPageFromProfile(prof, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	watched := 0
	sys.SetWatch(func(int64, dram.Time) { watched++ })
	before := counts["rank0"]
	clone, err := sys.Clone()
	if err != nil {
		t.Fatal(err)
	}
	if counts["rank0"] != before {
		t.Fatal("the copied ring was replayed through the tee")
	}
	clone.RunWindow()
	if watched != 0 {
		t.Fatal("the clone ran the original's watch hook")
	}
	if counts["rank0"] == before {
		t.Fatal("the clone's window bypassed its tee")
	}
}

// countingSink counts the events that pass through it per shard label.
type countingSink struct {
	inner engine.Tracer
	n     map[string]int
	key   string
}

func (s countingSink) Emit(e trace.Event) {
	s.n[s.key]++
	s.inner.Emit(e)
}

// BenchmarkSystemClone clones a fully populated 16 MB system, the unit of
// work the Figure 14/15 matrix repeats at every allocation fraction.
//
//	fresh:  each clone allocates its storage.
//	pooled: the system's storage comes from a pool, and each clone is
//	        recycled into it, as a fan-out's units recycle theirs.
func BenchmarkSystemClone(b *testing.B) {
	for _, pooled := range []bool{false, true} {
		name, pool := "fresh", (*dram.Pool)(nil)
		if pooled {
			name, pool = "pooled", dram.NewPool()
		}
		b.Run(name, func(b *testing.B) {
			sys, err := NewPooledSystem(DefaultConfig(16<<20), pool)
			if err != nil {
				b.Fatal(err)
			}
			prof, _ := workload.ByName("mcf")
			gen := prof.Lines(1)
			for p := 0; p < sys.Pages(); p++ {
				if err := sys.FillPage(&gen, p, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cloneSink, err = sys.Clone(); err != nil {
					b.Fatal(err)
				}
				if pooled {
					cloneSink.Recycle()
				}
			}
		})
	}
}

// cloneSink keeps BenchmarkSystemClone's result live.
var cloneSink *System
