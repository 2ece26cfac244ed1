package memctrl

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"zerorefresh/internal/attr"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
)

// Full-stack differential test: the batched controller datapath
// (WriteLine/ReadLine/WriteRow over the line- and row-granular backend
// calls) is driven against the retained scalar loops on a twin
// stack, across every transform option combination, both cell types, spared
// rows and decay windows. Both stacks must agree on every returned byte,
// every metrics snapshot and the exact merged trace-event stream.

// diffStack is one complete simulator stack in production's shard layout.
type diffStack struct {
	mod  *dram.Module
	eng  *refresh.Engine
	pipe *transform.Pipeline
	ctrl *Controller
	tr   *trace.Tracer
}

func newDiffStack(opts transform.Options) *diffStack {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	mod := dram.New(cfg)
	eng := refresh.NewEngine(mod, refresh.Config{
		Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true,
	})
	pipe := transform.NewPipeline(opts, transform.ExactTypes{Cfg: cfg})
	ctrl := NewController(mod, eng, pipe, transform.RotatedMapping{})
	tr := trace.New(1 << 18)
	// Production's shard layout (core.NewSystem): the CPU-side pipeline
	// emits into a "cpu" shard, and module, engine and controller share
	// one rank shard, so the comparison pins their interleaving too.
	pipe.SetTracer(tr.NewShard("cpu"))
	rank := tr.NewShard("rank0")
	mod.SetTracer(rank)
	eng.SetTracer(rank)
	ctrl.SetTracer(rank)
	for r := 0; r < cfg.RowsPerBank; r += 41 {
		mod.MarkSpared(r)
	}
	return &diffStack{mod: mod, eng: eng, pipe: pipe, ctrl: ctrl, tr: tr}
}

// randomLine mixes the content classes the transform cares about: zero
// lines, value-local lines (small deltas around a base) and uniform noise.
func randomLine(rng *rand.Rand) transform.Line {
	var l transform.Line
	switch rng.Intn(4) {
	case 0: // zero
	case 1, 2: // value-local
		base := rng.Uint64()
		l[0] = base
		for i := 1; i < 8; i++ {
			l[i] = base + uint64(rng.Intn(200)) - 100
		}
	default:
		for i := range l {
			l[i] = rng.Uint64()
		}
	}
	return l
}

func compareStacks(t *testing.T, opts transform.Options, batched, scalar *diffStack) {
	t.Helper()
	if a, b := batched.tr.Dropped(), scalar.tr.Dropped(); a != 0 || b != 0 {
		t.Fatalf("opts=%+v: trace rings overflowed (%d, %d dropped): grow the test buffers", opts, a, b)
	}
	if a, b := batched.mod.Stats(), scalar.mod.Stats(); a != b {
		t.Fatalf("opts=%+v: module stats diverged:\nbatched %+v\nscalar  %+v", opts, a, b)
	}
	pairs := []struct {
		name string
		a, b interface{}
	}{
		{"module", batched.mod.Metrics().Snapshot(), scalar.mod.Metrics().Snapshot()},
		{"engine", batched.eng.Metrics().Snapshot(), scalar.eng.Metrics().Snapshot()},
		{"pipeline", batched.pipe.Metrics().Snapshot(), scalar.pipe.Metrics().Snapshot()},
		{"controller", batched.ctrl.Metrics().Snapshot(), scalar.ctrl.Metrics().Snapshot()},
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.a, p.b) {
			t.Fatalf("opts=%+v: %s metrics diverged:\nbatched %+v\nscalar  %+v", opts, p.name, p.a, p.b)
		}
	}
	attr.MustMatch(t, fmt.Sprintf("opts=%+v: batched vs scalar", opts), batched.tr.Events(), scalar.tr.Events())
	cfg := batched.mod.Config()
	for chip := 0; chip < dram.LineChips; chip++ {
		for bank := 0; bank < cfg.Banks; bank++ {
			for row := 0; row < cfg.RowsPerBank; row++ {
				a := batched.mod.ChargedCellCount(chip, bank, row)
				b := scalar.mod.ChargedCellCount(chip, bank, row)
				if a != b {
					t.Fatalf("opts=%+v: charged cells diverged at (%d,%d,%d): %d vs %d", opts, chip, bank, row, a, b)
				}
			}
		}
	}
}

func TestBatchedDatapathMatchesScalar(t *testing.T) {
	const opsPerCombo = 2000 // ~1200 line writes and ~150 row writes per stack per combo
	for opt := 0; opt < 8; opt++ {
		opts := transform.Options{EBDI: opt&1 != 0, BitPlane: opt&2 != 0, CellAware: opt&4 != 0}
		batched, scalar := newDiffStack(opts), newDiffStack(opts)
		rng := rand.New(rand.NewSource(int64(100 + opt)))
		cfg := batched.mod.Config()
		tret := cfg.Timing.TRET
		capacity := uint64(cfg.Capacity())
		row := make([]transform.Line, cfg.LinesPerRow())
		fill := func(lines []transform.Line) { copy(lines, row) }
		now := dram.Time(0)
		window := 0
		var rowDecays int64
		for i := 0; i < opsPerCombo; i++ {
			now += dram.Time(rng.Int63n(int64(tret) / 256))
			addr := (uint64(rng.Int63()) * dram.LineBytes) % capacity
			switch rng.Intn(13) {
			case 10, 11: // write a whole row as one burst
				for j := range row {
					row[j] = randomLine(rng)
				}
				before := batched.mod.Stats().DecayEvents
				if err := batched.ctrl.WriteRow(addr, fill, now); err != nil {
					t.Fatal(err)
				}
				if err := scalar.ctrl.writeRowScalar(addr, fill, now); err != nil {
					t.Fatal(err)
				}
				rowDecays += batched.mod.Stats().DecayEvents - before
			case 12: // idle past the retention deadline: the next burst's first slot decays
				now += tret + dram.Time(rng.Int63n(int64(tret)))
			case 0, 1, 2, 3, 4, 5, 6: // write a line
				data := randomLine(rng).Bytes()
				if err := batched.ctrl.WriteLine(addr, data, now); err != nil {
					t.Fatal(err)
				}
				if err := scalar.ctrl.writeLineScalar(addr, data, now); err != nil {
					t.Fatal(err)
				}
			case 7, 8: // read a line back
				a, errA := batched.ctrl.ReadLine(addr, now)
				b, errB := scalar.ctrl.readLineScalar(addr, now)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("op %d: read errors diverged: %v vs %v", i, errA, errB)
				}
				if a != b {
					t.Fatalf("op %d: read contents diverged at %#x", i, addr)
				}
			default: // cleanse a row: a burst of zero lines
				if err := batched.ctrl.WriteRow(addr, clearLines, now); err != nil {
					t.Fatal(err)
				}
				if err := scalar.ctrl.writeRowScalar(addr, clearLines, now); err != nil {
					t.Fatal(err)
				}
			}
			// A few refresh windows per combo, including stretches long
			// enough for charged rows to decay between cycles.
			if i%700 == 699 {
				window += 1 + rng.Intn(2) // sometimes skip a window: decay
				start := dram.Time(window) * tret
				if start < now {
					start = now
				}
				a, b := batched.eng.RunCycle(start), scalar.eng.RunCycle(start)
				if a != b {
					t.Fatalf("opts=%+v window %d: cycle stats diverged:\nbatched %+v\nscalar  %+v", opts, window, a, b)
				}
				now = start + tret/dram.Time(2)
			}
		}
		if rowDecays == 0 {
			t.Fatalf("opts=%+v: no row burst decayed a chip-row; the activation path went untested", opts)
		}
		compareStacks(t, opts, batched, scalar)
	}
}

// clearLines fills a cleansed row: every line zero.
func clearLines(lines []transform.Line) { clear(lines) }

// TestCleanseTraceOrderSharedShard is the reproducer for cleansing a row
// that holds charged content: each chip-row's charge transition belongs to
// the slot that overwrites its last charged word, before that slot's
// writeback event. The per-line datapath emits them after writeback 62, in
// the rank shard module, engine and controller share.
func TestCleanseTraceOrderSharedShard(t *testing.T) {
	opts := transform.DefaultOptions()
	batched, scalar := newDiffStack(opts), newDiffStack(opts)
	rng := rand.New(rand.NewSource(3))
	lines := batched.mod.Config().LinesPerRow()
	for ln := 0; ln < lines; ln++ {
		var data [64]byte
		rng.Read(data[:]) // incompressible: every chip-row ends charged
		addr := uint64(ln) * dram.LineBytes
		if err := batched.ctrl.WriteLine(addr, data, 0); err != nil {
			t.Fatal(err)
		}
		if err := scalar.ctrl.writeLineScalar(addr, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := batched.ctrl.WriteRow(0, clearLines, 1); err != nil {
		t.Fatal(err)
	}
	if err := scalar.ctrl.writeRowScalar(0, clearLines, 1); err != nil {
		t.Fatal(err)
	}
	discharges := 0
	for _, ev := range batched.tr.Events() {
		if ev.Kind == trace.KindChargeTransition && ev.Time == 1 && ev.A == 1 {
			discharges++
		}
	}
	if discharges != dram.LineChips {
		t.Fatalf("cleanse emitted %d discharge transitions, want one per chip (%d)", discharges, dram.LineChips)
	}
	compareStacks(t, opts, batched, scalar)
}
