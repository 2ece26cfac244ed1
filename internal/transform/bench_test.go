package transform

import (
	"math/rand"
	"testing"

	"zerorefresh/internal/dram"
)

func benchLinesT(n int) []Line {
	rng := rand.New(rand.NewSource(12))
	lines := make([]Line, n)
	for i := range lines {
		switch i % 3 {
		case 0: // value-local: the common post-EBDI-friendly case
			base := rng.Uint64()
			lines[i][0] = base
			for j := 1; j < 8; j++ {
				lines[i][j] = base + uint64(rng.Intn(200)) - 100
			}
		case 1: // zero line
		default:
			for j := range lines[i] {
				lines[i][j] = rng.Uint64()
			}
		}
	}
	return lines
}

// BenchmarkBitPlaneInverse pits the network inverse against the bit-by-bit
// oracle on transposed images of mixed content.
func BenchmarkBitPlaneInverse(b *testing.B) {
	lines := benchLinesT(256)
	for i := range lines {
		lines[i] = BitPlaneTranspose(lines[i])
	}
	b.Run("network", func(b *testing.B) {
		b.ReportAllocs()
		var sink Line
		for i := 0; i < b.N; i++ {
			sink = BitPlaneInverse(lines[i%len(lines)])
		}
		_ = sink
	})
	b.Run("bitloop", func(b *testing.B) {
		b.ReportAllocs()
		var sink Line
		for i := 0; i < b.N; i++ {
			sink = referenceInverse(lines[i%len(lines)])
		}
		_ = sink
	})
}

// benchPipeline is the default ZERO-REFRESH pipeline on a geometry whose
// row 0 is a true-cell row and row 64 an anti-cell row.
func benchPipeline() *Pipeline {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	return NewPipeline(DefaultOptions(), ExactTypes{Cfg: cfg})
}

// BenchmarkPipelineEncodeDecode measures one full encode+decode round trip
// through the default ZERO-REFRESH pipeline, split by row cell type.
func BenchmarkPipelineEncodeDecode(b *testing.B) {
	p := benchPipeline()
	lines := benchLinesT(256)
	for name, row := range map[string]int{"true-cell": 0, "anti-cell": 64} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sink Line
			for i := 0; i < b.N; i++ {
				sink = p.Decode(p.Encode(lines[i%len(lines)], row), row)
			}
			_ = sink
		})
	}
}

// TestSteadyStateAllocFree pins the transform kernels allocation-free on
// the benchmark inputs: the bit-plane transpose, both bit-plane inverses, a
// full pipeline encode+decode round trip on a true-cell and an anti-cell
// row, and a whole-row EncodeRow.
func TestSteadyStateAllocFree(t *testing.T) {
	lines := benchLinesT(256)
	planes := make([]Line, len(lines))
	for i := range lines {
		planes[i] = BitPlaneTranspose(lines[i])
	}
	p := benchPipeline()
	row := make([]Line, 64)
	var sink Line
	k := 0
	next := func() int { k = (k + 1) % len(lines); return k }
	checks := map[string]func(){
		"BitPlaneTranspose":  func() { sink = BitPlaneTranspose(lines[next()]) },
		"BitPlaneInverse":    func() { sink = BitPlaneInverse(planes[next()]) },
		"referenceInverse":   func() { sink = referenceInverse(planes[next()]) },
		"Pipeline/true-cell": func() { sink = p.Decode(p.Encode(lines[next()], 0), 0) },
		"Pipeline/anti-cell": func() { sink = p.Decode(p.Encode(lines[next()], 64), 64) },
		"EncodeRow": func() {
			copy(row, lines[next()%(len(lines)-len(row)):])
			p.EncodeRow(row, 64)
		},
	}
	for name, fn := range checks {
		fn()
		if n := testing.AllocsPerRun(500, fn); n != 0 {
			t.Errorf("%s allocated %.1f times per op", name, n)
		}
	}
	_ = sink
}
