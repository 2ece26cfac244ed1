package workload

import (
	"fmt"

	"zerorefresh/internal/rng"
	"zerorefresh/internal/transform"
)

// Profile describes one benchmark application: its memory-content mix (the
// input to the value transformation) and its memory-system behaviour (the
// input to the traffic and performance models).
//
// The real applications are not redistributable and the paper's PIN traces
// are unavailable, so each profile is a synthetic stand-in calibrated to
// the published aggregate statistics. WorkingSetBytes and write rates are
// expressed at the simulator's default 1/1024 capacity scale (32 MB rank
// standing in for the paper's 32 GB).
type Profile struct {
	// Name identifies the benchmark (paper's Figure 14 x-axis).
	Name string
	// Suite is SPEC2006, NPB or TPC-H.
	Suite string
	// Mix gives the fraction of the working set made of each page
	// class; fractions sum to 1.
	Mix map[PageClass]float64
	// MPKI is LLC misses per kilo-instruction (drives the performance
	// model's request rate).
	MPKI float64
	// WriteFrac is the fraction of DRAM traffic that is writebacks.
	WriteFrac float64
	// RowHitRate is the row-buffer hit probability of DRAM requests.
	RowHitRate float64
	// BaseCPI is the core CPI with a perfect memory system.
	BaseCPI float64
	// WorkingSetBytes is the resident working set (scaled).
	WorkingSetBytes int64
	// TouchedBytesPerWindow is the amount of distinct row-memory
	// accessed (read or written) per 32 ms retention window (scaled) —
	// what Smart Refresh can skip.
	TouchedBytesPerWindow int64
	// WrittenBytesPerWindow is the distinct row-memory written per
	// 32 ms window (scaled) — what sets ZERO-REFRESH access bits.
	WrittenBytesPerWindow int64
}

// ExpectedReduction returns the analytic refresh reduction of a memory
// filled with this profile's content under the full pipeline: the
// mix-weighted fraction of skippable word classes.
func (p Profile) ExpectedReduction() float64 {
	r := 0.0
	for _, class := range classOrder {
		r += p.Mix[class] * float64(class.SkippableClasses()) / 8
	}
	return r
}

// ExpectedZeroByteFraction returns the analytic fraction of zero bytes in
// the untransformed content (Figure 6's 1-byte series).
func (p Profile) ExpectedZeroByteFraction() float64 {
	r := 0.0
	for _, class := range classOrder {
		r += p.Mix[class] * class.ZeroByteFraction()
	}
	return r
}

// Validate checks profile consistency.
func (p Profile) Validate() error {
	for class := range p.Mix {
		if class >= numPageClasses {
			return fmt.Errorf("workload %s: unknown page class %d", p.Name, class)
		}
	}
	sum := 0.0
	for _, class := range classOrder {
		frac := p.Mix[class]
		if frac < 0 {
			return fmt.Errorf("workload %s: negative fraction for %v", p.Name, class)
		}
		sum += frac
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("workload %s: mix sums to %v, want 1", p.Name, sum)
	}
	if p.MPKI < 0 || p.WriteFrac < 0 || p.WriteFrac > 1 || p.RowHitRate < 0 || p.RowHitRate > 1 {
		return fmt.Errorf("workload %s: rate parameters out of range", p.Name)
	}
	if p.BaseCPI <= 0 || p.WorkingSetBytes <= 0 {
		return fmt.Errorf("workload %s: BaseCPI and WorkingSetBytes must be positive", p.Name)
	}
	return nil
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// benchmarks is the evaluation suite: 17 SPEC CPU2006 + 2 NPB + 4 TPC-H
// (Section VI-A). Mixes are chosen so the analytic reduction reproduces
// Figure 14's ordering: gemsFDTD and sphinx3 high, omnetpp/perlbench/sp.C
// low, suite average near the paper's 37%.
var benchmarks = []Profile{
	{Name: "perlbench", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .03, PagePointer: .12, PageInt16: .05, PageInt32: .05, PageRandom: .55, PageText: .20},
		MPKI: 1.5, WriteFrac: .35, RowHitRate: .55, BaseCPI: .55,
		WorkingSetBytes: 1200 * kib, TouchedBytesPerWindow: 700 * kib, WrittenBytesPerWindow: 140 * kib},
	{Name: "bzip2", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .03, PageInt8: .18, PageInt16: .21, PageInt32: .20, PageRandom: .26, PageText: .12},
		MPKI: 3.5, WriteFrac: .40, RowHitRate: .60, BaseCPI: .60,
		WorkingSetBytes: 1600 * kib, TouchedBytesPerWindow: 900 * kib, WrittenBytesPerWindow: 190 * kib},
	{Name: "gcc", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .06, PageInt8: .28, PageInt16: .20, PagePointer: .20, PageInt32: .10, PageRandom: .16},
		MPKI: 6.0, WriteFrac: .45, RowHitRate: .50, BaseCPI: .65,
		WorkingSetBytes: 1800 * kib, TouchedBytesPerWindow: 1100 * kib, WrittenBytesPerWindow: 250 * kib},
	{Name: "mcf", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .04, PageInt8: .33, PageInt16: .15, PageInt32: .20, PagePointer: .25, PageRandom: .03},
		MPKI: 55, WriteFrac: .30, RowHitRate: .30, BaseCPI: .80,
		WorkingSetBytes: 1700 * kib, TouchedBytesPerWindow: 1900 * kib, WrittenBytesPerWindow: 150 * kib},
	{Name: "gobmk", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .03, PageInt8: .16, PageInt16: .10, PageInt32: .12, PagePointer: .10, PageRandom: .37, PageText: .12},
		MPKI: 1.0, WriteFrac: .30, RowHitRate: .55, BaseCPI: .70,
		WorkingSetBytes: 600 * kib, TouchedBytesPerWindow: 300 * kib, WrittenBytesPerWindow: 50 * kib},
	{Name: "hmmer", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .02, PageInt8: .20, PageInt16: .33, PageInt32: .18, PageRandom: .27},
		MPKI: 2.5, WriteFrac: .40, RowHitRate: .70, BaseCPI: .50,
		WorkingSetBytes: 500 * kib, TouchedBytesPerWindow: 350 * kib, WrittenBytesPerWindow: 75 * kib},
	{Name: "sjeng", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .02, PageInt8: .18, PageInt16: .12, PageInt32: .15, PagePointer: .08, PageRandom: .45},
		MPKI: 1.2, WriteFrac: .30, RowHitRate: .55, BaseCPI: .60,
		WorkingSetBytes: 400 * kib, TouchedBytesPerWindow: 250 * kib, WrittenBytesPerWindow: 45 * kib},
	{Name: "libquantum", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .03, PageInt8: .48, PageInt16: .32, PageInt32: .15, PageRandom: .02},
		MPKI: 25, WriteFrac: .35, RowHitRate: .85, BaseCPI: .55,
		WorkingSetBytes: 256 * kib, TouchedBytesPerWindow: 256 * kib, WrittenBytesPerWindow: 60 * kib},
	{Name: "h264ref", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .02, PageInt8: .23, PageInt16: .25, PageInt32: .12, PagePointer: .05, PageRandom: .33},
		MPKI: 2.0, WriteFrac: .40, RowHitRate: .65, BaseCPI: .55,
		WorkingSetBytes: 500 * kib, TouchedBytesPerWindow: 350 * kib, WrittenBytesPerWindow: 80 * kib},
	{Name: "omnetpp", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .02, PagePointer: .12, PageInt32: .10, PageRandom: .76},
		MPKI: 20, WriteFrac: .40, RowHitRate: .35, BaseCPI: .75,
		WorkingSetBytes: 400 * kib, TouchedBytesPerWindow: 350 * kib, WrittenBytesPerWindow: 85 * kib},
	{Name: "astar", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .03, PageInt8: .31, PageInt16: .15, PageInt32: .15, PagePointer: .15, PageRandom: .21},
		MPKI: 9.0, WriteFrac: .35, RowHitRate: .45, BaseCPI: .70,
		WorkingSetBytes: 600 * kib, TouchedBytesPerWindow: 450 * kib, WrittenBytesPerWindow: 90 * kib},
	{Name: "xalancbmk", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .04, PagePointer: .20, PageInt16: .30, PageInt32: .10, PageRandom: .16, PageText: .20},
		MPKI: 12, WriteFrac: .35, RowHitRate: .40, BaseCPI: .70,
		WorkingSetBytes: 800 * kib, TouchedBytesPerWindow: 600 * kib, WrittenBytesPerWindow: 120 * kib},
	{Name: "bwaves", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .02, PageInt8: .45, PageInt16: .25, PageFloat: .20, PageRandom: .08},
		MPKI: 18, WriteFrac: .40, RowHitRate: .80, BaseCPI: .55,
		WorkingSetBytes: 1800 * kib, TouchedBytesPerWindow: 1400 * kib, WrittenBytesPerWindow: 300 * kib},
	{Name: "gemsFDTD", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .05, PageInt8: .62, PageInt16: .25, PageFloat: .06, PageRandom: .02},
		MPKI: 25, WriteFrac: .45, RowHitRate: .75, BaseCPI: .60,
		WorkingSetBytes: 1600 * kib, TouchedBytesPerWindow: 1300 * kib, WrittenBytesPerWindow: 300 * kib},
	{Name: "milc", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .02, PageInt8: .40, PageInt16: .22, PageFloat: .25, PageRandom: .11},
		MPKI: 22, WriteFrac: .40, RowHitRate: .70, BaseCPI: .60,
		WorkingSetBytes: 1400 * kib, TouchedBytesPerWindow: 1100 * kib, WrittenBytesPerWindow: 225 * kib},
	{Name: "zeusmp", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .03, PageInt8: .39, PageInt16: .25, PageInt32: .10, PageFloat: .15, PageRandom: .08},
		MPKI: 8.0, WriteFrac: .40, RowHitRate: .70, BaseCPI: .55,
		WorkingSetBytes: 1000 * kib, TouchedBytesPerWindow: 700 * kib, WrittenBytesPerWindow: 140 * kib},
	{Name: "sphinx3", Suite: "SPEC2006",
		Mix:  map[PageClass]float64{PageZero: .04, PageInt8: .60, PageInt16: .30, PageFloat: .06, PageRandom: .00},
		MPKI: 12, WriteFrac: .30, RowHitRate: .65, BaseCPI: .60,
		WorkingSetBytes: 400 * kib, TouchedBytesPerWindow: 300 * kib, WrittenBytesPerWindow: 50 * kib},
	{Name: "sp.C", Suite: "NPB",
		Mix:  map[PageClass]float64{PageZero: .01, PageFloat: .60, PageRandom: .35, PageInt32: .04},
		MPKI: 15, WriteFrac: .45, RowHitRate: .75, BaseCPI: .60,
		WorkingSetBytes: 1200 * kib, TouchedBytesPerWindow: 900 * kib, WrittenBytesPerWindow: 200 * kib},
	{Name: "bt.C", Suite: "NPB",
		Mix:  map[PageClass]float64{PageZero: .02, PageInt8: .34, PageInt16: .22, PageFloat: .25, PageRandom: .17},
		MPKI: 10, WriteFrac: .45, RowHitRate: .75, BaseCPI: .55,
		WorkingSetBytes: 1400 * kib, TouchedBytesPerWindow: 1000 * kib, WrittenBytesPerWindow: 225 * kib},
	{Name: "tpch-q1", Suite: "TPC-H",
		Mix:  map[PageClass]float64{PageZero: .04, PageInt8: .40, PageInt16: .20, PageInt32: .15, PageRandom: .11, PageText: .10},
		MPKI: 8.0, WriteFrac: .25, RowHitRate: .80, BaseCPI: .50,
		WorkingSetBytes: 2 * mib, TouchedBytesPerWindow: 1600 * kib, WrittenBytesPerWindow: 200 * kib},
	{Name: "tpch-q5", Suite: "TPC-H",
		Mix:  map[PageClass]float64{PageZero: .04, PageInt8: .35, PageInt16: .18, PageInt32: .15, PagePointer: .08, PageRandom: .10, PageText: .10},
		MPKI: 10, WriteFrac: .25, RowHitRate: .70, BaseCPI: .55,
		WorkingSetBytes: 2400 * kib, TouchedBytesPerWindow: 1800 * kib, WrittenBytesPerWindow: 225 * kib},
	{Name: "tpch-q13", Suite: "TPC-H",
		Mix:  map[PageClass]float64{PageZero: .03, PageInt8: .33, PageInt16: .18, PageInt32: .12, PageRandom: .16, PageText: .18},
		MPKI: 6.0, WriteFrac: .25, RowHitRate: .75, BaseCPI: .55,
		WorkingSetBytes: 1600 * kib, TouchedBytesPerWindow: 1200 * kib, WrittenBytesPerWindow: 150 * kib},
	{Name: "tpch-q17", Suite: "TPC-H",
		Mix:  map[PageClass]float64{PageZero: .03, PageInt8: .36, PageInt16: .20, PageInt32: .12, PageRandom: .14, PageText: .15},
		MPKI: 9.0, WriteFrac: .25, RowHitRate: .70, BaseCPI: .55,
		WorkingSetBytes: 2 * mib, TouchedBytesPerWindow: 1500 * kib, WrittenBytesPerWindow: 190 * kib},
}

// Benchmarks returns the full evaluation suite in a stable order.
func Benchmarks() []Profile {
	out := make([]Profile, len(benchmarks))
	copy(out, benchmarks)
	return out
}

// Names returns the benchmark names in suite order.
func Names() []string {
	names := make([]string, len(benchmarks))
	for i, b := range benchmarks {
		names[i] = b.Name
	}
	return names
}

// ByName looks a profile up.
func ByName(name string) (Profile, bool) {
	for _, b := range benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Profile{}, false
}

// MeanExpectedReduction returns the suite-average analytic reduction —
// the number Figure 14 reports as ~37% for the 100%-allocated scenario.
func MeanExpectedReduction() float64 {
	sum := 0.0
	for _, b := range benchmarks {
		sum += b.ExpectedReduction()
	}
	return sum / float64(len(benchmarks))
}

// classOrder lists page classes in a stable order, so that cumulative
// sampling and every float sum over a mix are deterministic (a range over
// the Mix map would follow Go's randomized map order).
var classOrder = func() []PageClass {
	cs := make([]PageClass, 0, numPageClasses)
	for c := PageClass(0); c < numPageClasses; c++ {
		cs = append(cs, c)
	}
	return cs
}()

// Content is assigned at 1 KB *chunk* granularity, with chunks grouped into
// variable-length *segments* that share a class. This models real memory
// images: data structures span multiple KB (an arena, an array) but pages
// are not perfectly homogeneous — a row can straddle two structures. The
// segment model is what gives the row-buffer-size sensitivity of Figure 18:
// smaller rows straddle segment boundaries less often, so more of them are
// class-uniform and skippable.
const (
	// ChunkBytes is the class-assignment granularity (matches the 1 KB
	// block granularity of the paper's Figure 6 analysis).
	ChunkBytes = 1024
	// ChunkLines is cachelines per chunk.
	ChunkLines = ChunkBytes / 64
	// segmentBoundaryProb is the per-chunk probability that a new
	// segment (hence possibly a new class) starts; mean segment length
	// is ~80 KB, reflecting the large arrays/arenas that dominate the
	// SPEC-class footprints. The refresh skip unit is a LineChips-row
	// diagonal block (32 KB at 4 KB rows), so this length controls how
	// often blocks straddle structure boundaries.
	segmentBoundaryProb = 0.012
	// forcedBoundaryInterval guarantees a boundary every N chunks so
	// segment lookup is O(N) worst case.
	forcedBoundaryInterval = 256
)

// LineGen generates one profile's memory image under one seed. The content
// of a line depends only on its address and version, never on which lines
// were generated before it (Profile.LineAt is the order-independent
// definition), but a run of consecutive lines — a page fill — is cheap:
// LineGen folds the (seed, profile name) prefix that every content hash
// shares once, and it remembers the class of the last chunk it resolved, so
// another line of that chunk costs no class lookup and the next chunk costs
// one segment-boundary test. LineGen is a value: copy it freely, but do not
// share one between goroutines.
type LineGen struct {
	// prefix is the hash state after (seed, HashString(name)).
	prefix rng.HashState
	// cum is the profile's cumulative mix, in classOrder.
	cum [numPageClasses]float64
	// chunk is the last chunk resolved (noChunk before the first) and
	// class is its class.
	chunk uint64
	class PageClass
}

// noChunk marks a LineGen that has resolved no chunk yet. No line address
// maps to it: chunk indices stay below 2^60.
const noChunk = ^uint64(0)

// Lines returns the generator of this profile's image under seed.
func (p Profile) Lines(seed uint64) LineGen {
	g := LineGen{prefix: rng.HashStart.Fold(seed).Fold(HashString(p.Name)), chunk: noChunk}
	acc := 0.0
	for i, c := range classOrder {
		acc += p.Mix[c]
		g.cum[i] = acc
	}
	return g
}

// LineWords generates the content of the cacheline with global line index
// globalLine (byte address / 64) into l, as the words of its memory image:
// the form a page fill writes straight into the controller's staging row.
// version selects a value generation; rewriting a line with a new version
// models a store that changes values while preserving the data structure's
// class.
func (g *LineGen) LineWords(l *transform.Line, globalLine, version uint64) {
	class := g.classOf(globalLine / ChunkLines)
	class.Fill(l, NewSplitMix(g.prefix.Fold(globalLine+1).Fold(version).Sum()))
}

// Line is LineWords as the line's 64-byte memory image.
func (g *LineGen) Line(globalLine, version uint64) [64]byte {
	var l transform.Line
	g.LineWords(&l, globalLine, version)
	return l.Bytes()
}

// classOf deterministically assigns a class to the 1 KB chunk with global
// index chunk (byte address / ChunkBytes): the class drawn from the mix for
// the first chunk of its segment. The walk back to the segment start stops
// early at the last chunk resolved, whose segment it is if no boundary lies
// between them.
func (g *LineGen) classOf(chunk uint64) PageClass {
	for j := chunk; j != g.chunk; j-- {
		if g.isBoundary(j) {
			g.class = g.segmentClass(j)
			break
		}
	}
	g.chunk = chunk
	return g.class
}

// isBoundary reports whether a segment starts at chunk.
func (g *LineGen) isBoundary(chunk uint64) bool {
	if chunk%forcedBoundaryInterval == 0 {
		return true
	}
	return NewSplitMix(g.prefix.Fold(chunk).Fold(0xb0).Sum()).Float64() < segmentBoundaryProb
}

// segmentClass draws the class of the segment starting at chunk seg.
func (g *LineGen) segmentClass(seg uint64) PageClass {
	u := NewSplitMix(g.prefix.Fold(seg).Fold(0xc1).Sum()).Float64()
	for i, acc := range g.cum {
		if u < acc {
			return classOrder[i]
		}
	}
	return PageRandom
}

// LineAt generates one line of the image from scratch: a fresh generator's
// Line, which any sequence of Line calls on one generator agrees with.
func (p Profile) LineAt(seed, globalLine, version uint64) [64]byte {
	g := p.Lines(seed)
	return g.Line(globalLine, version)
}

// SkipUnitFraction estimates, from the class tables alone, the fraction of
// refresh steps a memory full of this content can skip when the skip unit
// covers unitBytes of contiguous content. Under the rotated mapping with
// staggered counters, the unit is a LineChips-row diagonal block
// (LineChips x rowBytes = 32 KB at the base configuration): a step skips word
// class c only if *every* line of the block has word c zero, so the
// block's skippable classes are the minimum over its chunks (skippable
// class sets are nested tails, making the minimum exact). This is the
// analytic counterpart of the full simulation, used for calibration.
func (p Profile) SkipUnitFraction(seed uint64, unitBytes, samples int) float64 {
	chunksPerUnit := unitBytes / ChunkBytes
	if chunksPerUnit < 1 {
		chunksPerUnit = 1
	}
	g := p.Lines(seed)
	total := 0
	for r := 0; r < samples; r++ {
		mink := 8
		for c := 0; c < chunksPerUnit; c++ {
			k := g.classOf(uint64(r*chunksPerUnit + c)).SkippableClasses()
			if k < mink {
				mink = k
			}
		}
		total += mink
	}
	return float64(total) / float64(samples*8)
}
