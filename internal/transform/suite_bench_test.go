package transform_test

import (
	"testing"

	"zerorefresh/internal/transform"
	"zerorefresh/internal/workload"
)

// The bit-plane benchmark runs on real content: EBDI-encoded lines of the
// four suite profiles the fig14 sweep fills. It lives in an external test
// package because workload imports transform.

// suiteEBDILines returns n EBDI-encoded lines per suite profile, the input
// the bit-plane stage sees in the pipeline.
func suiteEBDILines(tb testing.TB, n int) []transform.Line {
	tb.Helper()
	var lines []transform.Line
	for _, name := range []string{"mcf", "sphinx3", "omnetpp", "tpch-q1"} {
		prof, ok := workload.ByName(name)
		if !ok {
			tb.Fatalf("unknown suite profile %q", name)
		}
		gen := prof.Lines(1)
		for i := 0; i < n; i++ {
			var l transform.Line
			gen.LineWords(&l, uint64(i), 0)
			lines = append(lines, transform.EBDIEncode(l))
		}
	}
	return lines
}

// BenchmarkBitPlaneTranspose measures the forward transpose network on
// suite content.
func BenchmarkBitPlaneTranspose(b *testing.B) {
	lines := suiteEBDILines(b, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	var sink transform.Line
	for i := 0; i < b.N; i++ {
		sink = transform.BitPlaneTranspose(lines[i%len(lines)])
	}
	_ = sink
}
