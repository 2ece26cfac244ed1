package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/ostrace"
	"zerorefresh/internal/proptest"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/transform"
	"zerorefresh/internal/workload"
)

// The repository's central safety property, stated over the whole design
// space: for ANY combination of transformation stages, chip mapping,
// cell-type fidelity, refresh granularity, cell-group interleave, rank
// count and workload, a system that runs windows with skipping enabled
// never decays a row and always reads back exactly what was written.
//
// The fills mix the ways a page is written: random pages filled with one
// benchmark and refilled with a second one's, cleansed pages, an OS
// allocator schedule that zero-fills the pages it frees and refills the
// pages it reallocates, and word-class pages. A benchmark's pages charge
// nested sets of a row's chip-rows, so a benchmark refill only charges or
// only discharges chip-rows; a word-class page sets some words of each
// line, and in them some bytes, so refilling one discharges some chip-rows
// and charges others in the same burst. The run must see that happen.
// Between windows, single lines are stored through the line path into
// pages of any kind.
//
// Half the systems, those of even seeds, take their DRAM storage from a
// pool that holds the recycled row tables and chunks of a system full of
// random charged words. They also go on, after the fills, as a clone of
// themselves, and the original's storage goes back to the pool for the
// clone's arena growth.
func TestQuickNoConfigurationEverLosesData(t *testing.T) {
	mappings := []transform.ChipMapping{
		transform.RotatedMapping{}, transform.DirectMapping{}, transform.ByteScatterMapping{},
	}
	benches := workload.Benchmarks()
	// content is what a page was last written with: a benchmark version,
	// or word-class lines.
	type content struct {
		prof    workload.Profile
		version uint64
		lines   []transform.Line
	}
	mixed := 0  // refills that discharged some chip-rows and charged others
	pooled := 0 // systems built from a poisoned pool

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(2 << 20) // small: 512 pages total
		cfg.Seed = uint64(seed)
		cfg.Transform = transform.Options{
			EBDI:      rng.Intn(2) == 0,
			BitPlane:  rng.Intn(2) == 0,
			CellAware: rng.Intn(2) == 0,
		}
		cfg.Mapping = mappings[rng.Intn(len(mappings))]
		cfg.Refresh = refresh.Config{
			Skip:         true,
			RowsPerAR:    []int{4, 8, 16}[rng.Intn(3)],
			Stagger:      rng.Intn(2) == 0,
			StatusInDRAM: rng.Intn(2) == 0,
			AllBank:      rng.Intn(2) == 0,
		}
		cfg.CellGroupRows = []int{8, 64, 512}[rng.Intn(3)]
		cfg.Ranks = []int{1, 2}[rng.Intn(2)]
		if rng.Intn(2) == 0 {
			cfg.CellTypes = CellTypesNoisy
			cfg.NoisyRate = rng.Float64() * 0.5
		}
		var pool *dram.Pool
		if seed%2 == 0 {
			pool = poisonedPool(t, cfg)
			pooled++
		}
		sys, err := NewPooledSystem(cfg, pool)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}

		i := rng.Intn(len(benches))
		prof := benches[i]
		prof2 := benches[(i+1+rng.Intn(len(benches)-1))%len(benches)]
		live := map[int]content{}
		var writeErr error
		note := func(err error) {
			if err != nil && writeErr == nil {
				writeErr = err
			}
		}
		fill := func(p int, c content) {
			note(sys.FillPageFromProfile(c.prof, p, cfg.Seed, c.version))
			live[p] = c
		}
		cleanse := func(p int) {
			note(sys.CleansePage(p))
			delete(live, p)
		}
		// chargedChips is the mask of page p's chip-rows holding charge.
		chargedChips := func(p int) (mask int) {
			u, local, err := sys.rankOf(sys.PageAddr(p))
			note(err)
			loc, err := u.Controller.AddressMap().Locate(local)
			note(err)
			for c := 0; c < dram.LineChips; c++ {
				if !u.DRAM.SenseDischarged(c, loc.Bank, loc.Row) {
					mask |= 1 << c
				}
			}
			return mask
		}
		writeClasses := func(p int) {
			words, bytes := 1+rng.Intn(255), 1+rng.Intn(255)
			var keep uint64
			for b := 0; b < 8; b++ {
				if bytes>>b&1 != 0 {
					keep |= 0xff << (8 * b)
				}
			}
			lines := make([]transform.Line, sys.DRAM.Config().LinesPerRow())
			for i := range lines {
				for w := range lines[i] {
					if words>>w&1 != 0 {
						lines[i][w] = rng.Uint64() & keep
					}
				}
			}
			before := chargedChips(p)
			note(sys.WritePage(p, func(dst []transform.Line) { copy(dst, lines) }))
			if after := chargedChips(p); before&^after != 0 && after&^before != 0 {
				mixed++
			}
			live[p] = content{lines: lines}
		}
		// storeLine writes one random line of page p through the line
		// path. Memory never written holds undefined content, so a page
		// that is not live is cleansed first; a benchmark page turns into
		// its lines. linePages lists the pages stored to.
		linesPerRow := sys.DRAM.Config().LinesPerRow()
		var linePages []int
		storeLine := func(p int) {
			c, ok := live[p]
			if !ok {
				cleanse(p)
				c = content{lines: make([]transform.Line, linesPerRow)}
			} else if c.lines == nil {
				gen := c.prof.Lines(cfg.Seed)
				lines := make([]transform.Line, linesPerRow)
				for i := range lines {
					gen.LineWords(&lines[i], uint64(p*linesPerRow+i), c.version)
				}
				c = content{lines: lines}
			}
			var line transform.Line
			for w := range line {
				if rng.Intn(2) == 0 {
					line[w] = rng.Uint64() >> rng.Intn(64)
				}
			}
			ln := rng.Intn(linesPerRow)
			note(sys.WriteLineAt(sys.PageAddr(p)+uint64(ln)*dram.LineBytes, line.Bytes()))
			c.lines[ln] = line
			live[p] = c
			linePages = append(linePages, p)
		}
		// The allocator hands out and frees a prefix of the pages: freed
		// pages are cleansed, and each reallocation fills a new version.
		alloc := ostrace.NewAllocator(sys.Pages())
		generation := uint64(20)
		alloc.OnAllocate = func(p int) { fill(p, content{prof: prof2, version: generation}) }
		alloc.OnFree = cleanse
		target := 0.1 + rng.Float64()*0.2
		allocate := func(frac float64) {
			generation++
			note(alloc.SetTargetFraction(frac))
		}

		// Fill a random subset of pages, hand a prefix to the allocator,
		// refill some filled pages with the second benchmark, cleanse
		// others, free part of the prefix and reallocate it, and write
		// word-class pages twice over.
		for i := 0; i < 40; i++ {
			fill(rng.Intn(sys.Pages()), content{prof: prof, version: uint64(rng.Intn(3))})
		}
		allocate(target)
		for p := 0; p < sys.Pages(); p++ {
			if _, ok := live[p]; ok && rng.Intn(3) == 0 {
				fill(p, content{prof: prof2, version: uint64(rng.Intn(3))})
			}
		}
		for i := 0; i < 10; i++ {
			cleanse(rng.Intn(sys.Pages()))
		}
		allocate(target / 2)
		allocate(target)
		for i := 0; i < 8; i++ {
			p := rng.Intn(sys.Pages())
			writeClasses(p)
			writeClasses(p)
		}
		if pool != nil {
			c, err := sys.Clone()
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			sys.Recycle()
			sys = c
		}
		// Several windows with occasional rewrites, allocator swings and
		// up to 15 line stores. Half the stores go back to a page an
		// earlier store wrote: that page is mostly discharged, so a later
		// window's store charges chip-rows an earlier window sensed as
		// discharged, which refresh may skip only if the store went unseen.
		for w := 0; w < 4; w++ {
			for i, n := 0, rng.Intn(16); i < n; i++ {
				p := rng.Intn(sys.Pages())
				if len(linePages) > 0 && rng.Intn(2) == 0 {
					p = linePages[rng.Intn(len(linePages))]
				}
				storeLine(p)
			}
			if rng.Intn(2) == 0 {
				fill(rng.Intn(sys.Pages()), content{prof: []workload.Profile{prof, prof2}[w%2], version: uint64(10 + w)})
			}
			if rng.Intn(2) == 0 {
				writeClasses(rng.Intn(sys.Pages()))
			}
			if rng.Intn(2) == 0 {
				allocate(target * rng.Float64())
				allocate(target)
			}
			sys.RunWindow()
		}
		if writeErr != nil {
			t.Logf("seed %d: %v", seed, writeErr)
			return false
		}
		if sys.DecayEvents() != 0 {
			t.Logf("seed %d: decay events under %+v", seed, cfg)
			return false
		}
		for p, c := range live {
			if c.lines == nil {
				if err := sys.VerifyPage(c.prof, p, cfg.Seed, c.version); err != nil {
					t.Logf("seed %d: %v", seed, err)
					return false
				}
				continue
			}
			for ln, want := range c.lines {
				if got, err := sys.ReadPageLine(p, ln); err != nil || got != want.Bytes() {
					t.Logf("seed %d: page %d line %d reads %x (%v), wrote %x", seed, p, ln, got, err, want.Bytes())
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, proptest.Config(t, 25)); err != nil {
		t.Fatal(err)
	}
	if mixed == 0 {
		t.Fatal("no refill discharged some chip-rows and charged others in one burst")
	}
	if pooled == 0 {
		t.Fatal("no system was built from a poisoned pool")
	}
}

// poisonedPool returns a pool that holds the recycled storage of a system
// of cfg whose every page was written with random words, which charge
// nearly every chip-row: row tables of charged, touched rows that own
// slots, and chunks of stale charged words.
func poisonedPool(t *testing.T, cfg Config) *dram.Pool {
	pool := dram.NewPool()
	sys, err := NewPooledSystem(cfg, pool)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(cfg.Seed)))
	for p := 0; p < sys.Pages(); p++ {
		if err := sys.WritePage(p, func(lines []transform.Line) {
			for i := range lines {
				for w := range lines[i] {
					lines[i][w] = rng.Uint64()
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	sys.Recycle()
	return pool
}

func TestSparedRowsReduceSkipping(t *testing.T) {
	norm := func(frac float64) float64 {
		cfg := DefaultConfig(4 << 20)
		cfg.SparedRowFraction = frac
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys.RunWindow() // idle memory: everything but spared blocks skips
		return sys.RunWindow().NormalizedRefresh()
	}
	clean, spared := norm(0), norm(0.02)
	if spared <= clean {
		t.Fatalf("sparing should force refreshes: %.4f vs %.4f", spared, clean)
	}
}
