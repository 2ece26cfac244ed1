package transform

import (
	"reflect"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/trace"
)

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
