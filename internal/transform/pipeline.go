package transform

import (
	"sync/atomic"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

// Options selects which transformation stages are active. The zero value
// disables everything (raw storage); DefaultOptions enables the full
// ZERO-REFRESH pipeline. Individual stages can be switched off for the
// ablation studies (zrsim -exp ablation).
type Options struct {
	// EBDI enables the base-delta encoding stage.
	EBDI bool
	// BitPlane enables the bit-plane transposition stage (only
	// meaningful together with EBDI, but honoured independently so the
	// ablation can isolate it).
	BitPlane bool
	// CellAware enables the per-cell-type encoding: lines destined for
	// anti-cell rows are stored complemented so their zero bits land on
	// discharged cells.
	CellAware bool
}

// DefaultOptions enables the complete pipeline of Section V.
func DefaultOptions() Options {
	return Options{EBDI: true, BitPlane: true, CellAware: true}
}

// Pipeline applies the value transformation between the LLC and the memory
// controller. A Pipeline is stateless apart from its options and cell-type
// map and is safe for concurrent use.
type Pipeline struct {
	opts  Options
	types CellTypeMap
	// ops counts transform operations (one per encoded or decoded line)
	// for the energy model: the EBDI module costs 15 pJ/op (Section
	// VI-B) and is exercised on both reads and writes. It is an atomic
	// metrics counter: with per-rank shards encoding concurrently
	// through the one shared CPU-side pipeline, a plain increment would
	// race (and lose energy accounting).
	reg       *metrics.Registry
	ops       *metrics.Counter
	zeroWords *metrics.Histogram

	// tr receives codec-selection events when tracing is enabled; nil
	// otherwise. Encode has no DRAM timestamp, so the events carry Time 0
	// and order by emission sequence — which is deterministic as long as
	// the sink shard is only written from the sequential CPU-side driver.
	tr trace.Sink

	// fillMemo caches the last multi-slot EncodeFill result per destination
	// cell type. The stages are pure functions of the input line and — via the
	// cell-aware inversion — the row's cell type only, so a bulk-fill
	// workload that cleanses page after page with the same (usually zero)
	// line re-encodes nothing. Atomic pointers keep the concurrent-encode
	// contract of the shared CPU-side pipeline race-free; accounting is
	// replayed from the memo, leaving counters, histogram and events
	// exactly as the un-memoized encode would.
	fillMemo [2]atomic.Pointer[fillResult]
}

// fillResult is one memoized EncodeFill outcome: the input line it applies
// to and everything EncodeFill derives from it for a fixed cell type.
type fillResult struct {
	in     Line
	out    Line
	zeros  int64
	stages int64
}

// NewPipeline builds a pipeline. types supplies the (possibly imperfect)
// cell-type identification of Section II-B; pass ExactTypes for an oracle.
func NewPipeline(opts Options, types CellTypeMap) *Pipeline {
	if types == nil {
		panic("transform: nil cell-type map")
	}
	reg := metrics.NewRegistry()
	return &Pipeline{
		opts: opts, types: types, reg: reg,
		ops:       reg.Counter("transform.ops"),
		zeroWords: reg.Histogram("transform.zero_words"),
	}
}

// SetTracer installs the event sink the pipeline emits codec-selection
// events into. A nil sink (the default) disables emission. The sink must
// not be shared with concurrently running shards if deterministic event
// order is required.
func (p *Pipeline) SetTracer(tr trace.Sink) { p.tr = tr }

// Options returns the pipeline configuration.
func (p *Pipeline) Options() Options { return p.opts }

// Metrics returns the pipeline's metrics registry, for attachment into a
// system-wide registry.
func (p *Pipeline) Metrics() *metrics.Registry { return p.reg }

// Ops returns the number of encode/decode operations performed.
func (p *Pipeline) Ops() int64 { return p.ops.Load() }

// Encode transforms a cacheline for storage in the rank-level row rowIdx.
func (p *Pipeline) Encode(l Line, rowIdx int) Line {
	return p.EncodeFill(l, rowIdx, 1)
}

// EncodeFill encodes one line destined for n identical slots of row rowIdx.
// The stages run once — the encoded bits are the same for every slot of a
// row — but the accounting is charged n times, leaving the ops counter, the
// zero-words histogram and the codec-event stream exactly as n Encode calls
// would: the modelled transform hardware still processes every line.
func (p *Pipeline) EncodeFill(l Line, rowIdx, n int) Line {
	p.ops.Add(int64(n))
	ct := p.types.TypeOf(rowIdx)
	var memo *atomic.Pointer[fillResult]
	var zeros, stages int64
	hit := false
	if n > 1 {
		// Only multi-slot fills consult the memo: a single-line Encode of
		// ever-changing content would miss (and refill) every time, and the
		// refill's boxed fillResult must stay off the per-line write path.
		memo = &p.fillMemo[ct&1]
		if m := memo.Load(); m != nil && m.in == l {
			l, zeros, stages = m.out, m.zeros, m.stages
			hit = true
		}
	}
	if !hit {
		in := l
		zeros, stages = p.encodeLine(&l, ct)
		if memo != nil {
			memo.Store(&fillResult{in: in, out: l, zeros: zeros, stages: stages}) //zr:allow(hotpath) memo refill on a fill-pattern change, amortized over the bulk fill run
		}
	}
	p.zeroWords.ObserveN(zeros, int64(n))
	if p.tr != nil {
		for i := 0; i < n; i++ {
			p.tr.Emit(codecEvent(rowIdx, stages, zeros))
		}
	}
	return l
}

// EncodeRow encodes the lines of one rank-level row in place, with the
// accounting of len(lines) Encode calls batched: one ops Add, one
// zero-words ObserveN per distinct zero count (at most nine), and the
// codec events in line order.
//
//zr:hotpath
func (p *Pipeline) EncodeRow(lines []Line, rowIdx int) {
	p.ops.Add(int64(len(lines)))
	ct := p.types.TypeOf(rowIdx)
	var zeroCounts [len(Line{}) + 1]int64
	for i := range lines {
		zeros, stages := p.encodeLine(&lines[i], ct)
		zeroCounts[zeros]++
		if p.tr != nil {
			p.tr.Emit(codecEvent(rowIdx, stages, zeros))
		}
	}
	for zeros, n := range zeroCounts {
		if n != 0 {
			p.zeroWords.ObserveN(int64(zeros), n)
		}
	}
}

// encodeLine is the per-line stage sequence every encode entry shares: it
// runs the enabled stages in place on a line bound to a row of cell type
// ct, and returns the line's zero-word count and the codec's stage bits.
func (p *Pipeline) encodeLine(l *Line, ct dram.CellType) (zeros, stages int64) {
	if p.opts.EBDI {
		*l = EBDIEncode(*l)
		stages |= trace.CodecEBDI
	}
	if p.opts.BitPlane {
		bitPlaneTranspose(l)
		stages |= trace.CodecBitPlane
	}
	// Count the win before the cell-aware inversion: a zero word here
	// stores as the discharged pattern either way (inverted rows store it
	// as all-ones, which is discharged for anti-cells).
	zeros = int64(l.ZeroWords())
	if p.opts.CellAware && ct == dram.AntiCell {
		*l = l.Invert()
		stages |= trace.CodecInverted
	}
	return zeros, stages
}

// codecEvent builds the codec-selection event of one line bound to rowIdx.
func codecEvent(rowIdx int, stages, zeros int64) trace.Event {
	return trace.Event{
		Kind: trace.KindCodecSelect,
		Chip: -1, Bank: -1, Row: int32(rowIdx),
		A: stages, B: zeros,
	}
}

// Decode inverts Encode for a line read back from row rowIdx. Because the
// same (predicted) cell type is used on both paths, decoding is lossless
// even when the prediction is wrong — misprediction only costs refresh
// reduction opportunity, never data integrity (Section V-B).
func (p *Pipeline) Decode(l Line, rowIdx int) Line {
	p.ops.Inc()
	if p.opts.CellAware && p.types.TypeOf(rowIdx) == dram.AntiCell {
		l = l.Invert()
	}
	if p.opts.BitPlane {
		l = BitPlaneInverse(l)
	}
	if p.opts.EBDI {
		l = EBDIDecode(l)
	}
	return l
}
