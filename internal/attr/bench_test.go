package attr

import (
	"testing"
)

// BenchmarkDiffLockstep measures the hotpath lockstep comparison over two
// identical 100k-event traces — the worst case, since the loop must walk
// both streams to the end before concluding they match.
func BenchmarkDiffLockstep(b *testing.B) {
	a := mkEvents(100_000)
	c := mkEvents(100_000)
	b.SetBytes(int64(len(a)) * 56)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if firstDivergence(a, c) != -1 {
			b.Fatal("streams diverged")
		}
	}
}

// TestSteadyStateAllocFree pins the lockstep comparison allocation-free.
func TestSteadyStateAllocFree(t *testing.T) {
	a := mkEvents(10_000)
	c := mkEvents(10_000)
	if n := testing.AllocsPerRun(100, func() { firstDivergence(a, c) }); n != 0 {
		t.Errorf("firstDivergence allocated %.1f times per op", n)
	}
}
