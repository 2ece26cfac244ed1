package transform

import (
	"reflect"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/trace"
)

// TestEncodeFillAccountingParity proves EncodeFill(l, r, n) is
// observationally identical to n Encode calls: same encoded bits, same ops
// counter, same zero-words histogram and the same codec-event stream. This
// is the contract the bulk page-cleansing path relies on.
func TestEncodeFillAccountingParity(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	lines := []Line{
		{},
		{0x11, 0x2200, 0, 0x44, 0, 0, 0x7f, 1 << 40},
		{^uint64(0), 1, 2, 3, 4, 5, 6, 7},
	}
	const n = 9
	for opt := 0; opt < 8; opt++ {
		opts := Options{EBDI: opt&1 != 0, BitPlane: opt&2 != 0, CellAware: opt&4 != 0}
		for _, row := range []int{0, 64} { // one true-cell row, one anti-cell row
			scalar := NewPipeline(opts, ExactTypes{Cfg: cfg})
			batched := NewPipeline(opts, ExactTypes{Cfg: cfg})
			trS, trB := trace.New(0), trace.New(0)
			scalar.SetTracer(trS.NewShard("cpu"))
			batched.SetTracer(trB.NewShard("cpu"))
			for _, l := range lines {
				var encScalar Line
				for i := 0; i < n; i++ {
					encScalar = scalar.Encode(l, row)
				}
				if encFill := batched.EncodeFill(l, row, n); encFill != encScalar {
					t.Fatalf("opts=%+v row=%d: EncodeFill bits %v != Encode bits %v", opts, row, encFill, encScalar)
				}
			}
			if s, b := scalar.Ops(), batched.Ops(); s != b {
				t.Fatalf("opts=%+v row=%d: ops %d (scalar) != %d (fill)", opts, row, s, b)
			}
			if s, b := scalar.Metrics().Snapshot(), batched.Metrics().Snapshot(); !reflect.DeepEqual(s, b) {
				t.Fatalf("opts=%+v row=%d: metrics diverged:\nscalar %+v\nfill   %+v", opts, row, s, b)
			}
			if s, b := trS.Events(), trB.Events(); !reflect.DeepEqual(s, b) {
				t.Fatalf("opts=%+v row=%d: event streams diverged (%d vs %d events)", opts, row, len(s), len(b))
			}
		}
	}
}

// TestEncodeFillZeroCount proves n <= 0 is a no-op with no accounting.
func TestEncodeFillZeroCount(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20)
	p := NewPipeline(DefaultOptions(), ExactTypes{Cfg: cfg})
	p.EncodeFill(Line{1, 2, 3, 4, 5, 6, 7, 8}, 0, 0)
	if got := p.Ops(); got != 0 {
		t.Fatalf("EncodeFill(n=0) charged %d ops, want 0", got)
	}
}

// TestEncodeRowAccountingParity proves EncodeRow is observationally
// identical to one Encode call per line in line order: same encoded bits,
// same ops counter, same zero-words histogram and the same codec-event
// stream. WriteRow relies on it.
func TestEncodeRowAccountingParity(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	lines := benchLinesT(64)
	for opt := 0; opt < 8; opt++ {
		opts := Options{EBDI: opt&1 != 0, BitPlane: opt&2 != 0, CellAware: opt&4 != 0}
		for _, row := range []int{0, 64} { // one true-cell row, one anti-cell row
			scalar := NewPipeline(opts, ExactTypes{Cfg: cfg})
			batched := NewPipeline(opts, ExactTypes{Cfg: cfg})
			trS, trB := trace.New(0), trace.New(0)
			scalar.SetTracer(trS.NewShard("cpu"))
			batched.SetTracer(trB.NewShard("cpu"))
			enc := append([]Line(nil), lines...)
			batched.EncodeRow(enc, row)
			for i, l := range lines {
				if want := scalar.Encode(l, row); enc[i] != want {
					t.Fatalf("opts=%+v row=%d line %d: EncodeRow bits %v != Encode bits %v", opts, row, i, enc[i], want)
				}
			}
			if s, b := scalar.Metrics().Snapshot(), batched.Metrics().Snapshot(); !reflect.DeepEqual(s, b) {
				t.Fatalf("opts=%+v row=%d: metrics diverged:\nscalar %+v\nrow    %+v", opts, row, s, b)
			}
			if s, b := trS.Events(), trB.Events(); !reflect.DeepEqual(s, b) {
				t.Fatalf("opts=%+v row=%d: event streams diverged (%d vs %d events)", opts, row, len(s), len(b))
			}
		}
	}
}
