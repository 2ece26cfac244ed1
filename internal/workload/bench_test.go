package workload

import (
	"testing"

	"zerorefresh/internal/transform"
)

// lineSink keeps the compiler from discarding generated lines.
var lineSink [64]byte

// pageFixture returns an op that generates the next 64-line page of mcf's
// image with a fresh generator, as core.System.FillPageFromProfile does:
// each line's words straight into the page's row of lines.
func pageFixture() func() {
	p, _ := ByName("mcf")
	page := uint64(0)
	row := make([]transform.Line, pageLines)
	return func() {
		g := p.Lines(1)
		for ln := range row {
			g.LineWords(&row[ln], page*pageLines+uint64(ln), 0)
		}
		page++
	}
}

// pageBytesFixture is pageFixture through the 64-byte Line form, the form
// a line-by-line caller of Profile.LineAt and the integrity check read.
func pageBytesFixture() func() {
	p, _ := ByName("mcf")
	page := uint64(0)
	return func() {
		g := p.Lines(1)
		for ln := uint64(0); ln < pageLines; ln++ {
			lineSink = g.Line(page*pageLines+ln, 0)
		}
		page++
	}
}

// TestSteadyStateAllocFree pins page generation allocation-free, as words
// and as 64-byte lines.
func TestSteadyStateAllocFree(t *testing.T) {
	for name, op := range map[string]func(){"words": pageFixture(), "bytes": pageBytesFixture()} {
		op()
		if n := testing.AllocsPerRun(200, op); n != 0 {
			t.Errorf("generating a 64-line page as %s allocated %.1f times per op", name, n)
		}
	}
}

// BenchmarkPageLines times one 64-line page, pages in order, generated as
// words into a row of lines.
func BenchmarkPageLines(b *testing.B) {
	op := pageFixture()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BenchmarkLineAt times one line at a random address, each from scratch:
// the random-access path, which walks back to the segment start.
func BenchmarkLineAt(b *testing.B) {
	p, _ := ByName("mcf")
	r := NewSplitMix(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lineSink = p.LineAt(1, r.Uint64()>>24, 0)
	}
}
