package transform

import (
	"sync"
	"testing"
	"testing/quick"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/proptest"
)

func pipelineConfig() dram.Config {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	return cfg
}

func TestPipelineRoundTripBothCellTypes(t *testing.T) {
	cfg := pipelineConfig()
	p := NewPipeline(DefaultOptions(), ExactTypes{cfg})
	trueRow, antiRow := 0, cfg.CellGroupRows
	f := func(l Line) bool {
		return p.Decode(p.Encode(l, trueRow), trueRow) == l &&
			p.Decode(p.Encode(l, antiRow), antiRow) == l
	}
	if err := quick.Check(f, proptest.Config(t, 1000)); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineZeroLineBecomesDischargedPattern(t *testing.T) {
	// The key property behind OS-transparent idle-page skipping
	// (Section III-B): a zero cacheline must encode to the *discharged*
	// pattern of whichever row it lands on — all zeros on true-cell
	// rows, all ones on anti-cell rows.
	cfg := pipelineConfig()
	p := NewPipeline(DefaultOptions(), ExactTypes{cfg})
	trueRow, antiRow := 0, cfg.CellGroupRows

	enc := p.Encode(Line{}, trueRow)
	if !enc.IsZero() {
		t.Fatalf("zero line on true-cell row encoded to %v", enc)
	}
	enc = p.Encode(Line{}, antiRow)
	for i, w := range enc {
		if w != ^uint64(0) {
			t.Fatalf("zero line on anti-cell row: word %d = %#x, want all ones", i, w)
		}
	}
}

func TestPipelineAllOptionCombosRoundTrip(t *testing.T) {
	cfg := pipelineConfig()
	rows := []int{0, cfg.CellGroupRows, 3, cfg.CellGroupRows + 7}
	lines := []Line{
		{},
		{1, 2, 3, 4, 5, 6, 7, 8},
		{^uint64(0), 0, ^uint64(0), 0, 1, ^uint64(0) - 5, 42, 9},
		{0xDEAD, 0xDEAD + 1, 0xDEAD - 1, 0xDEAD, 0xDEAD + 100, 0xDEAD - 100, 0xDEAD, 0xDEAD},
	}
	for mask := 0; mask < 8; mask++ {
		opts := Options{EBDI: mask&1 != 0, BitPlane: mask&2 != 0, CellAware: mask&4 != 0}
		p := NewPipeline(opts, ExactTypes{cfg})
		for _, r := range rows {
			for _, l := range lines {
				if got := p.Decode(p.Encode(l, r), r); got != l {
					t.Fatalf("opts %+v row %d: round trip %v -> %v", opts, r, l, got)
				}
			}
		}
	}
}

func TestPipelineMispredictionIsLossless(t *testing.T) {
	// Even a 50%-wrong cell-type map must never corrupt data, because
	// encode and decode share the prediction (Section V-B).
	cfg := pipelineConfig()
	noisy := NewNoisyTypes(ExactTypes{cfg}, cfg.RowsPerBank, 0.5, 1)
	if noisy.MispredictionCount() == 0 {
		t.Fatal("noise generator produced no flips")
	}
	p := NewPipeline(DefaultOptions(), noisy)
	f := func(l Line, row uint16) bool {
		r := int(row) % cfg.RowsPerBank
		return p.Decode(p.Encode(l, r), r) == l
	}
	if err := quick.Check(f, proptest.Config(t, 500)); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineOpCounting(t *testing.T) {
	cfg := pipelineConfig()
	p := NewPipeline(DefaultOptions(), ExactTypes{cfg})
	l := Line{1, 2, 3, 4, 5, 6, 7, 8}
	_ = p.Decode(p.Encode(l, 0), 0)
	_ = p.Encode(l, 1)
	if got := p.Ops(); got != 3 {
		t.Fatalf("Ops = %d, want 3", got)
	}
}

func TestPipelineConcurrentOpCounting(t *testing.T) {
	// Regression test for the op-counter data race: the pipeline is shared
	// by every rank shard, so concurrent Encode/Decode used to race on a
	// plain `ops++` and drop energy-model operations. Run under -race this
	// catches the race itself; the exact final count catches lost updates.
	cfg := pipelineConfig()
	p := NewPipeline(DefaultOptions(), ExactTypes{cfg})
	const (
		goroutines = 8
		opsPerG    = 2000
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := Line{uint64(g), 2, 3, 4, 5, 6, 7, 8}
			row := g % cfg.RowsPerBank
			for i := 0; i < opsPerG/2; i++ {
				if got := p.Decode(p.Encode(l, row), row); got != l {
					t.Errorf("goroutine %d: round trip corrupted", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got, want := p.Ops(), int64(goroutines*opsPerG); got != want {
		t.Fatalf("Ops = %d after concurrent use, want %d (lost updates)", got, want)
	}
}

func TestNewPipelineNilTypesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nil cell-type map")
		}
	}()
	NewPipeline(DefaultOptions(), nil)
}

func TestIdentifyMatchesGeometry(t *testing.T) {
	cfg := pipelineConfig()
	m := dram.New(cfg)
	probed, _ := Identify(m, 0)
	for r := 0; r < cfg.RowsPerBank; r++ {
		if got, want := probed.TypeOf(r), cfg.CellTypeOf(r); got != want {
			t.Fatalf("row %d identified as %v, want %v", r, got, want)
		}
	}
}

func TestNoisyTypesErrorRate(t *testing.T) {
	cfg := pipelineConfig()
	n := NewNoisyTypes(ExactTypes{cfg}, cfg.RowsPerBank, 0.1, 7)
	got := n.MispredictionCount()
	want := int(0.1 * float64(cfg.RowsPerBank))
	if got < want/2 || got > want*2 {
		t.Fatalf("MispredictionCount = %d, want about %d", got, want)
	}
	// Determinism: same seed, same flips.
	n2 := NewNoisyTypes(ExactTypes{cfg}, cfg.RowsPerBank, 0.1, 7)
	for r := 0; r < cfg.RowsPerBank; r++ {
		if n.TypeOf(r) != n2.TypeOf(r) {
			t.Fatalf("noisy map not deterministic at row %d", r)
		}
	}
}
