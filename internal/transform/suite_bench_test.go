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

// classEBDILines returns n EBDI-encoded lines of page class c.
func classEBDILines(c workload.PageClass, n int) []transform.Line {
	lines := make([]transform.Line, n)
	for i := range lines {
		var l transform.Line
		c.Fill(&l, workload.NewSplitMix(workload.Hash(uint64(c), uint64(i))))
		lines[i] = transform.EBDIEncode(l)
	}
	return lines
}

// transposeSink keeps the benchmarked transposes live.
var transposeSink transform.Line

// BenchmarkBitPlaneTranspose measures the forward transpose network on
// suite content, then on the lines of each page class alone: the class
// bounds the deltas' width, and so how many byte lanes the transpose runs.
func BenchmarkBitPlaneTranspose(b *testing.B) {
	run := func(b *testing.B, lines []transform.Line) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			transposeSink = transform.BitPlaneTranspose(lines[i%len(lines)])
		}
	}
	b.Run("suite", func(b *testing.B) { run(b, suiteEBDILines(b, 1024)) })
	for c := workload.PageZero; c <= workload.PageText; c++ {
		b.Run(c.String(), func(b *testing.B) { run(b, classEBDILines(c, 1024)) })
	}
}
