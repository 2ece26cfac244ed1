package metrics

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*per {
		t.Fatalf("counter = %d, want %d", got, workers*per)
	}
}

func TestRegistryIdempotentAndKindChecked(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("Counter not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Gauge on a counter name should panic")
		}
	}()
	r.Gauge("x")
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reads")
	g := r.Gauge("norm")
	c.Add(5)
	g.Set(0.5)
	s1 := r.Snapshot()
	c.Add(7)
	g.Set(0.25)
	s2 := r.Snapshot()
	d := s2.Delta(s1)
	if d.Counter("reads") != 7 {
		t.Fatalf("delta reads = %d, want 7", d.Counter("reads"))
	}
	smp, ok := d.Get("norm")
	if !ok || smp.Float != 0.25 {
		t.Fatalf("delta gauge = %+v, want current value 0.25", smp)
	}
}

func TestAttachPrefixesChildren(t *testing.T) {
	parent := NewRegistry()
	child0 := NewRegistry()
	child1 := NewRegistry()
	child0.Counter("dram.refreshes").Add(3)
	child1.Counter("dram.refreshes").Add(4)
	parent.Counter("windows").Inc()
	parent.Attach("rank0", child0)
	parent.Attach("rank1", child1)

	s := parent.Snapshot()
	if s.Counter("windows") != 1 {
		t.Fatalf("own sample missing: %v", s)
	}
	if s.Counter("rank0/dram.refreshes") != 3 || s.Counter("rank1/dram.refreshes") != 4 {
		t.Fatalf("child samples wrong: %s", s)
	}
	if len(s.Samples) != 3 {
		t.Fatalf("want 3 samples, got %d", len(s.Samples))
	}
}

func TestSnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.Inc()
		}
	}()
	for i := 0; i < 100; i++ {
		_ = r.Snapshot()
	}
	<-done
	if c.Load() != 5000 {
		t.Fatalf("lost updates: %d", c.Load())
	}
}

func TestMergeFoldsShards(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("refreshes").Add(10)
	b.Counter("refreshes").Add(32)
	m := Merge([]Snapshot{a.Snapshot(), b.Snapshot()}, nil)
	if m.Counter("refreshes") != 42 {
		t.Fatalf("merge = %d, want 42", m.Counter("refreshes"))
	}

	parent := NewRegistry()
	parent.Attach("rank0", a)
	s := parent.Snapshot()
	m2 := Merge([]Snapshot{s}, []string{"rank0/"})
	if m2.Counter("refreshes") != 10 {
		t.Fatalf("strip-prefix merge = %d, want 10", m2.Counter("refreshes"))
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{-3, 0, 1, 2, 3, 4, 1000} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
	if h.Sum() != 1007 {
		t.Fatalf("sum = %d, want 1007", h.Sum())
	}
	smp, ok := r.Snapshot().Get("lat")
	if !ok || smp.Kind != KindHistogram {
		t.Fatalf("histogram sample missing: %+v", smp)
	}
	// -3,0 -> bucket 0; 1 -> bucket 1; 2,3 -> bucket 2; 4 -> bucket 3;
	// 1000 -> bucket 10 ([512,1024)).
	want := []int64{2, 1, 2, 1, 0, 0, 0, 0, 0, 0, 1}
	if len(smp.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", smp.Buckets, want)
	}
	for i := range want {
		if smp.Buckets[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", smp.Buckets, want)
		}
	}
	if got := smp.Quantile(0.5); got != 3 {
		t.Fatalf("p50 = %g, want 3 (upper edge of [2,4))", got)
	}
	if got := smp.Quantile(1); got != 1023 {
		t.Fatalf("p100 = %g, want 1023 (upper edge of [512,1024))", got)
	}
	if got := smp.Mean(); got != 1007.0/7 {
		t.Fatalf("mean = %g, want %g", got, 1007.0/7)
	}
}

func TestHistogramDeltaAndMerge(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	h.Observe(1)
	h.Observe(100)
	s1 := r.Snapshot()
	h.Observe(100)
	h.Observe(5)
	s2 := r.Snapshot()

	d := s2.Delta(s1)
	smp, _ := d.Get("lat")
	if smp.Int != 2 || smp.Sum != 105 {
		t.Fatalf("delta = count %d sum %d, want 2/105", smp.Int, smp.Sum)
	}
	// Window delta holds exactly 5 (bucket 3) and 100 (bucket 7).
	want := []int64{0, 0, 0, 1, 0, 0, 0, 1}
	if len(smp.Buckets) != len(want) {
		t.Fatalf("delta buckets = %v, want %v", smp.Buckets, want)
	}
	for i := range want {
		if smp.Buckets[i] != want[i] {
			t.Fatalf("delta buckets = %v, want %v", smp.Buckets, want)
		}
	}

	// Merging two per-rank snapshots folds histograms bucket-wise.
	a, b := NewRegistry(), NewRegistry()
	a.Histogram("lat").Observe(1)
	b.Histogram("lat").Observe(1)
	b.Histogram("lat").Observe(64)
	m := Merge([]Snapshot{a.Snapshot(), b.Snapshot()}, nil)
	ms, _ := m.Get("lat")
	if ms.Int != 3 || ms.Sum != 66 {
		t.Fatalf("merge = count %d sum %d, want 3/66", ms.Int, ms.Sum)
	}
	if ms.Buckets[1] != 2 || ms.Buckets[7] != 1 {
		t.Fatalf("merge buckets = %v", ms.Buckets)
	}
}

func TestHistogramEqualDetectsBucketDrift(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	// Same count and sum, different distribution: 2+2 vs 1+3.
	a.Histogram("x").Observe(2)
	a.Histogram("x").Observe(2)
	b.Histogram("x").Observe(1)
	b.Histogram("x").Observe(3)
	if a.Snapshot().Equal(b.Snapshot()) {
		t.Fatal("Equal missed a bucket-level divergence")
	}
}

func TestHistogramKindChecked(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("Histogram on a counter name should panic")
		}
	}()
	r.Histogram("x")
}

func TestEqual(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	s1 := r.Snapshot()
	s2 := r.Snapshot()
	if !s1.Equal(s2) {
		t.Fatal("identical snapshots not equal")
	}
	r.Counter("a").Inc()
	if s1.Equal(r.Snapshot()) {
		t.Fatal("differing snapshots reported equal")
	}
}

// TestRegistryReset checks Reset zeroes every metric — counters, gauges,
// histograms, and attached children — while keeping the handed-out
// pointers registered and usable.
func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	g := r.Gauge("ratio")
	h := r.Histogram("lat")
	child := NewRegistry()
	cc := child.Counter("inner")
	r.Attach("rank0", child)

	c.Add(7)
	g.Set(0.5)
	h.Observe(3)
	h.Observe(300)
	cc.Add(9)

	r.Reset()

	snap := r.Snapshot()
	for _, smp := range snap.Samples {
		switch smp.Kind {
		case KindCounter:
			if smp.Int != 0 {
				t.Errorf("%s = %d after Reset, want 0", smp.Name, smp.Int)
			}
		case KindGauge:
			if smp.Float != 0 {
				t.Errorf("%s = %g after Reset, want 0", smp.Name, smp.Float)
			}
		case KindHistogram:
			if smp.Int != 0 || smp.Sum != 0 || len(smp.Buckets) != 0 {
				t.Errorf("%s = %+v after Reset, want empty histogram", smp.Name, smp)
			}
		}
	}

	// The old pointers still feed the same registered identities.
	c.Inc()
	cc.Inc()
	h.Observe(1)
	snap = r.Snapshot()
	if snap.Counter("ops") != 1 || snap.Counter("rank0/inner") != 1 {
		t.Fatal("pre-Reset metric pointers detached from the registry")
	}
}

// TestDeltaNegativeCounterClamp pins the negative-delta guard: a prev
// snapshot taken before a Reset would make the subtraction negative, and
// Delta must fall back to the current sample instead.
func TestDeltaNegativeCounterClamp(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Add(100)
	prev := r.Snapshot()

	r.Reset()
	c.Add(7)
	d := r.Snapshot().Delta(prev)

	if got := d.Counter("ops"); got != 7 {
		t.Fatalf("delta across reset = %d, want the post-reset value 7", got)
	}
}

// TestDeltaNegativeHistogramClamp checks the histogram side of the
// guard, including the bucket-only signature (count delta positive but a
// bucket gone negative).
func TestDeltaNegativeHistogramClamp(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket 10
	}
	prev := r.Snapshot()

	// Across a reset the count delta (12-10=2) stays positive, but the
	// old bucket-10 population cannot be subtracted from the new
	// bucket-0 one: the per-bucket check must still catch it.
	r.Reset()
	for i := 0; i < 12; i++ {
		h.Observe(0) // bucket 0
	}
	d := r.Snapshot().Delta(prev)

	smp, ok := d.Get("lat")
	if !ok {
		t.Fatal("histogram missing from delta")
	}
	if smp.Int != 12 || smp.Sum != 0 {
		t.Fatalf("delta across reset = count %d sum %d, want the post-reset sample (12, 0)", smp.Int, smp.Sum)
	}
	if anyNegative(smp.Buckets) {
		t.Fatalf("delta buckets went negative: %v", smp.Buckets)
	}
}

// TestDeltaWithoutResetUnaffected checks the guard does not disturb
// ordinary monotonic deltas.
func TestDeltaWithoutResetUnaffected(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	h := r.Histogram("lat")
	c.Add(5)
	h.Observe(2)
	prev := r.Snapshot()
	c.Add(3)
	h.Observe(4)

	d := r.Snapshot().Delta(prev)
	if got := d.Counter("ops"); got != 3 {
		t.Fatalf("counter delta = %d, want 3", got)
	}
	smp, _ := d.Get("lat")
	if smp.Int != 1 || smp.Sum != 4 {
		t.Fatalf("histogram delta = count %d sum %d, want (1, 4)", smp.Int, smp.Sum)
	}
}

// TestRegistryCopyFrom copies counters, gauges, histogram buckets, counts
// and sums, and attached children, into a registry of the same shape, and
// refuses registries of another shape.
func TestRegistryCopyFrom(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("ops")
		r.Gauge("frac")
		r.Histogram("lat")
		child := NewRegistry()
		child.Counter("refreshes")
		child.Histogram("run")
		r.Attach("rank0", child)
		return r
	}
	src := build()
	src.Counter("ops").Add(7)
	src.Gauge("frac").Set(0.25)
	src.Histogram("lat").Observe(0)
	src.Histogram("lat").ObserveN(900, 3)
	var child *Registry
	for _, c := range src.children {
		child = c.reg
	}
	child.Counter("refreshes").Add(11)
	child.Histogram("run").Observe(-4)

	dst := build()
	dst.Counter("ops").Add(100) // overwritten, not added to
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if a, b := dst.Snapshot(), src.Snapshot(); !a.Equal(b) {
		t.Fatalf("copy differs:\n%v\nvs\n%v", a, b)
	}

	otherKind := func() *Registry { // "ops" a gauge, the rest alike
		r := NewRegistry()
		r.Gauge("ops")
		r.Gauge("frac")
		r.Histogram("lat")
		return r
	}
	reshaped := func(reshape func(r *Registry)) func() *Registry {
		return func() *Registry {
			r := build()
			reshape(r)
			return r
		}
	}
	shapes := map[string]func() *Registry{
		"other kind":    otherKind,
		"extra metric":  reshaped(func(r *Registry) { r.Counter("extra") }),
		"extra child":   reshaped(func(r *Registry) { r.Attach("rank1", NewRegistry()) }),
		"other prefix":  reshaped(func(r *Registry) { r.children[0].prefix = "rank9" }),
		"child content": reshaped(func(r *Registry) { r.children[0].reg.Gauge("extra") }),
	}
	for name, shape := range shapes {
		if err := shape().CopyFrom(src); err == nil {
			t.Errorf("%s: copy between registries of different shapes succeeded", name)
		}
	}
}
