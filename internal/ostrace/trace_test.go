package ostrace

import (
	"math"
	"testing"
)

func TestTableIMeans(t *testing.T) {
	// Table I: Google 70%, Alibaba 88%, Bitbrains 28% average allocated
	// memory. The empirical means of the models must reproduce them.
	for _, m := range Traces() {
		got := m.EmpiricalMean(1, 20000)
		if math.Abs(got-m.TableIMean) > 0.02 {
			t.Errorf("%s: empirical mean %.3f, want %.3f", m.Name, got, m.TableIMean)
		}
	}
}

func TestUtilizationBoundsAndDeterminism(t *testing.T) {
	for _, m := range Traces() {
		for i := 0; i < 1000; i++ {
			u := m.Utilization(7, i)
			if u < 0.01 || u > 1 {
				t.Fatalf("%s: utilization %v out of range", m.Name, u)
			}
			if u != m.Utilization(7, i) {
				t.Fatalf("%s: not deterministic", m.Name)
			}
		}
	}
}

func TestCDFShapes(t *testing.T) {
	// Figure 5's qualitative shapes: Alibaba concentrated high,
	// Bitbrains concentrated low, Google between.
	if Alibaba.CDF(0.75) > 0.05 {
		t.Error("Alibaba should rarely drop below 75% utilization")
	}
	if Bitbrains.CDF(0.5) < 0.8 {
		t.Error("Bitbrains should usually sit below 50% utilization")
	}
	g50 := Google.CDF(0.5)
	if g50 < 0.01 || g50 > 0.20 {
		t.Errorf("Google CDF(0.5) = %.3f, want small but nonzero", g50)
	}
	// CDFs are monotone.
	for _, m := range Traces() {
		xs, ys := m.CDFSeries(101)
		for i := 1; i < len(ys); i++ {
			if ys[i] < ys[i-1] {
				t.Fatalf("%s: CDF not monotone at %v", m.Name, xs[i])
			}
		}
	}
}

func TestByName(t *testing.T) {
	if m, ok := ByName("bitbrains"); !ok || m.Name != "bitbrains" {
		t.Fatal("bitbrains lookup failed")
	}
	if _, ok := ByName("azure"); ok {
		t.Fatal("phantom trace")
	}
}

func TestAllocatorReachesTargets(t *testing.T) {
	a := NewAllocator(1000)
	for _, target := range []float64{0.5, 0.9, 0.2, 0.0, 1.0, 0.28} {
		if err := a.SetTargetFraction(target); err != nil {
			t.Fatal(err)
		}
		if got := a.AllocatedFraction(); math.Abs(got-target) > 0.001 {
			t.Fatalf("target %v reached %v", target, got)
		}
	}
	if err := a.SetTargetFraction(1.5); err == nil {
		t.Fatal("invalid target accepted")
	}
}

func TestAllocatorCallbacks(t *testing.T) {
	a := NewAllocator(100)
	filled := map[int]int{}
	cleansed := map[int]int{}
	a.OnAllocate = func(p int) { filled[p]++ }
	a.OnFree = func(p int) { cleansed[p]++ }

	a.SetTargetFraction(0.6)
	if len(filled) != 60 || len(cleansed) != 0 {
		t.Fatalf("after alloc: %d filled, %d cleansed", len(filled), len(cleansed))
	}
	a.SetTargetFraction(0.4)
	if len(cleansed) != 20 {
		t.Fatalf("after shrink: %d cleansed", len(cleansed))
	}
	// Every cleansed page had been allocated.
	for p := range cleansed {
		if filled[p] == 0 {
			t.Fatalf("page %d cleansed but never filled", p)
		}
	}
	allocs, frees := a.Stats()
	if allocs != 60 || frees != 20 {
		t.Fatalf("stats: %d allocs, %d frees", allocs, frees)
	}
}

// TestAllocatorIndices checks AllocatedPageIndices against the pages the
// callbacks handed out and took back, through growth and shrinkage.
func TestAllocatorIndices(t *testing.T) {
	a := NewAllocator(50)
	held := map[int]bool{}
	a.OnAllocate = func(p int) {
		if held[p] {
			t.Fatalf("page %d allocated twice", p)
		}
		held[p] = true
	}
	a.OnFree = func(p int) { delete(held, p) }
	for _, target := range []float64{0.3, 0.1, 0.5, 0.5, 0.2, 0} {
		if err := a.SetTargetFraction(target); err != nil {
			t.Fatal(err)
		}
		idx := a.AllocatedPageIndices()
		if want := int(target*50 + 0.5); len(idx) != want || len(held) != want {
			t.Fatalf("target %v: %d indices, %d held, want %d", target, len(idx), len(held), want)
		}
		for i, p := range idx {
			if !held[p] || (i > 0 && p <= idx[i-1]) {
				t.Fatalf("target %v: indices %v do not list the held pages in order", target, idx)
			}
		}
	}
}
