package workload

import (
	"fmt"
	"testing"

	"zerorefresh/internal/transform"
)

// The content model as it was first written: every line generated from
// scratch, its chunk's class found by walking back one chunk at a time to
// the segment start and rehashing the full coordinate tuple at every step.
// LineGen must reproduce it bit for bit; these copies are the oracle the
// differential tests and FuzzLineMatchesReference compare it with.

func (p Profile) isBoundary(seed, chunk uint64) bool {
	if chunk%forcedBoundaryInterval == 0 {
		return true
	}
	return NewSplitMix(Hash(seed, HashString(p.Name), chunk, 0xb0)).Float64() < segmentBoundaryProb
}

// segmentStart returns the first chunk of the segment containing chunk.
func (p Profile) segmentStart(seed, chunk uint64) uint64 {
	for j := chunk; ; j-- {
		if p.isBoundary(seed, j) {
			return j
		}
	}
}

// ClassOfChunk deterministically assigns a class to the 1 KB chunk with
// global index chunk (byte address / ChunkBytes), drawn from the profile
// mix once per segment.
func (p Profile) ClassOfChunk(seed, chunk uint64) PageClass {
	seg := p.segmentStart(seed, chunk)
	u := NewSplitMix(Hash(seed, HashString(p.Name), seg, 0xc1)).Float64()
	acc := 0.0
	for _, c := range classOrder {
		acc += p.Mix[c]
		if u < acc {
			return c
		}
	}
	return PageRandom
}

// referenceLineAt is the original Profile.LineAt.
func (p Profile) referenceLineAt(seed, globalLine, version uint64) [64]byte {
	chunk := globalLine / ChunkLines
	class := p.ClassOfChunk(seed, chunk)
	rng := NewSplitMix(Hash(seed, HashString(p.Name), globalLine+1, version))
	return referenceClassLine(class, rng).Bytes()
}

// referenceClassLine is PageClass.Fill as first written: a returned line,
// with PageText drawn byte by byte into a 64-byte image and read back as
// words.
func referenceClassLine(c PageClass, rng *SplitMix) transform.Line {
	if c != PageText {
		return classLine(c, rng)
	}
	var b [64]byte
	for i := range b {
		b[i] = byte(0x20 + rng.Intn(95))
	}
	return transform.LineFromBytes(&b)
}

// lineWords is LineWords into a line whose every bit is set beforehand, so
// a word the generator fails to write shows as a difference.
func lineWords(g *LineGen, globalLine, version uint64) [64]byte {
	l := transform.Line{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
	g.LineWords(&l, globalLine, version)
	return l.Bytes()
}

// referenceSkipUnitFraction is SkipUnitFraction over the reference walk.
func (p Profile) referenceSkipUnitFraction(seed uint64, unitBytes, samples int) float64 {
	chunksPerUnit := unitBytes / ChunkBytes
	if chunksPerUnit < 1 {
		chunksPerUnit = 1
	}
	total := 0
	for r := 0; r < samples; r++ {
		mink := 8
		for c := 0; c < chunksPerUnit; c++ {
			k := p.ClassOfChunk(seed, uint64(r*chunksPerUnit+c)).SkippableClasses()
			if k < mink {
				mink = k
			}
		}
		total += mink
	}
	return float64(total) / float64(samples*8)
}

const pageLines = 4096 / 64

// edgeChunks are the forced-boundary edges: the first chunk, the last
// chunk before a forced boundary, the boundary, the chunk after it, and
// the last chunk of the second forced interval.
var edgeChunks = []uint64{0, 255, 256, 257, 511}

// TestLineGenMatchesReference compares the generator with the reference
// walk for every profile at seeds 1, 2 and 99 and versions 0 and 3: pages
// generated in order by one generator (as a page fill or a sweep runs),
// then pages in shuffled order by the same generator (as the execution
// driver visits scattered lines), the lines of the forced-boundary edge
// chunks from a fresh generator each, and the class of every chunk of the
// first four forced intervals. Each line is checked in both forms, each
// form on its own generator: the 64-byte Line and the LineWords a page
// fill writes into the staging row.
func TestLineGenMatchesReference(t *testing.T) {
	const (
		inOrderPages  = 8
		shuffledPages = 16
		// Shuffled pages come from the first two forced intervals, so
		// jumps land both inside the last resolved segment and past it.
		spanPages   = 2 * forcedBoundaryInterval * ChunkBytes / 4096
		classChunks = 4 * forcedBoundaryInterval
	)
	for _, p := range Benchmarks() {
		for _, seed := range []uint64{1, 2, 99} {
			for _, version := range []uint64{0, 3} {
				name := fmt.Sprintf("%s/seed%d/v%d", p.Name, seed, version)
				// g generates Lines and gw LineWords, so each form drives
				// its own generator through the same sequence.
				check := func(g, gw *LineGen, line uint64, how string) {
					t.Helper()
					want := p.referenceLineAt(seed, line, version)
					if got := g.Line(line, version); got != want {
						t.Fatalf("%s: %s line %d differs from the reference", name, how, line)
					}
					if got := lineWords(gw, line, version); got != want {
						t.Fatalf("%s: %s line %d as words differs from the reference", name, how, line)
					}
				}

				g, gw := p.Lines(seed), p.Lines(seed)
				for pg := uint64(0); pg < inOrderPages; pg++ {
					for ln := uint64(0); ln < pageLines; ln++ {
						check(&g, &gw, pg*pageLines+ln, "in-order")
					}
				}

				r := NewSplitMix(Hash(seed, version, 0x5f))
				order := make([]uint64, spanPages)
				for i := range order {
					order[i] = uint64(i)
				}
				for i := 0; i < shuffledPages; i++ {
					j := i + r.Intn(len(order)-i)
					order[i], order[j] = order[j], order[i]
				}
				for _, pg := range order[:shuffledPages] {
					for ln := uint64(0); ln < pageLines; ln++ {
						check(&g, &gw, pg*pageLines+ln, "shuffled")
					}
				}

				for _, chunk := range edgeChunks {
					fresh, freshW := p.Lines(seed), p.Lines(seed)
					for ln := uint64(0); ln < ChunkLines; ln++ {
						check(&fresh, &freshW, chunk*ChunkLines+ln, "edge-chunk")
					}
				}

				if version != 0 {
					continue // classes do not depend on the version
				}
				cg := p.Lines(seed)
				for chunk := uint64(0); chunk < classChunks; chunk++ {
					if got, want := cg.classOf(chunk), p.ClassOfChunk(seed, chunk); got != want {
						t.Fatalf("%s: chunk %d class %v, reference %v", name, chunk, got, want)
					}
				}
			}
		}
	}
}

// TestSkipUnitFractionMatchesReference pins the analytic skip fraction to
// the reference walk exactly, for block units and a sub-chunk unit.
func TestSkipUnitFractionMatchesReference(t *testing.T) {
	for _, p := range Benchmarks() {
		for _, unit := range []int{8 * 4096, 512} {
			got := p.SkipUnitFraction(1, unit, 100)
			want := p.referenceSkipUnitFraction(1, unit, 100)
			if got != want {
				t.Errorf("%s unit %d: SkipUnitFraction %v, reference %v", p.Name, unit, got, want)
			}
		}
	}
}

// FuzzLineMatchesReference compares a line from a fresh generator, and
// from a generator that last resolved the previous chunk, with the
// reference walk at any seed, profile, line and version, as a 64-byte Line
// and as LineWords.
func FuzzLineMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint64(0), uint64(0))
	f.Add(uint64(2), uint8(13), uint64(256*ChunkLines), uint64(3))
	f.Add(uint64(99), uint8(22), uint64(257*ChunkLines-1), uint64(1))
	f.Add(uint64(7), uint8(0), ^uint64(0), ^uint64(0))
	profiles := Benchmarks()
	f.Fuzz(func(t *testing.T, seed uint64, profile uint8, line, version uint64) {
		p := profiles[int(profile)%len(profiles)]
		want := p.referenceLineAt(seed, line, version)
		if got := p.LineAt(seed, line, version); got != want {
			t.Fatalf("%s seed %d line %d version %d: LineAt differs from the reference", p.Name, seed, line, version)
		}
		fresh := p.Lines(seed)
		if got := lineWords(&fresh, line, version); got != want {
			t.Fatalf("%s seed %d line %d version %d: LineWords differs from the reference", p.Name, seed, line, version)
		}
		if line >= ChunkLines {
			g, gw := p.Lines(seed), p.Lines(seed)
			g.Line(line-ChunkLines, version)
			if got := g.Line(line, version); got != want {
				t.Fatalf("%s seed %d line %d version %d: generator after the previous chunk differs from the reference", p.Name, seed, line, version)
			}
			lineWords(&gw, line-ChunkLines, version)
			if got := lineWords(&gw, line, version); got != want {
				t.Fatalf("%s seed %d line %d version %d: LineWords after the previous chunk differs from the reference", p.Name, seed, line, version)
			}
		}
	})
}
