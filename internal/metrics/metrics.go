// Package metrics is the unified statistics substrate of the simulator: a
// registry of atomically updated counters and gauges that every layer
// (dram, refresh, memctrl, transform, workload, energy) publishes into, so
// that one coherent snapshot of the whole system can be taken at any time —
// including while per-rank shards are mutating their counters concurrently.
//
// Registries compose: a parent registry Attaches child registries under a
// label prefix (core.System attaches one child per rank), and Snapshot
// walks the whole tree. Snapshots are plain values; Delta subtracts two of
// them, which is how the experiment drivers measure a window of activity
// without resetting live counters.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically named int64 metric, safe for concurrent use.
// The zero value is a valid counter at zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a float64 metric with last-write-wins semantics, safe for
// concurrent use. The zero value is a valid gauge at zero.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// histogramBuckets is the number of power-of-two buckets: bucket 0 holds
// observations <= 0, bucket k (1..64) holds observations v with
// bits.Len64(v) == k, i.e. v in [2^(k-1), 2^k).
const histogramBuckets = 65

// Histogram is a distribution of int64 observations over power-of-two
// buckets, safe for concurrent use: every bucket, the count and the sum
// are independent atomics, so Observe is lock-free and a snapshot taken
// while writers run is a valid (if slightly torn) capture — the same
// contract counters have. The zero value is a valid empty histogram.
//
// Power-of-two bucketing keeps the type allocation-free and makes merges
// exact: two histograms over the same quantity add bucket-wise, which is
// what lets per-rank shards record disjoint distributions and the
// deterministic merge fold them without loss.
type Histogram struct {
	buckets [histogramBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

// Observe records one observation. Negative values clamp to bucket 0.
func (h *Histogram) Observe(v int64) {
	h.ObserveN(v, 1)
}

// ObserveN records the same observation n times in three atomic updates —
// the batched form the hot paths use when one event repeats (a row burst
// observing the same zero-word count for many lines). It leaves the histogram in
// exactly the state n Observe calls would. n <= 0 records nothing.
func (h *Histogram) ObserveN(v, n int64) {
	if n <= 0 {
		return
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.buckets[b].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// sample captures the histogram's buckets trimmed to the highest non-zero
// bucket (nil for an empty histogram).
func (h *Histogram) sample() []int64 {
	top := -1
	var counts [histogramBuckets]int64
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		if counts[i] != 0 {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	return append([]int64(nil), counts[:top+1]...)
}

// Kind distinguishes sample types in a snapshot.
type Kind uint8

const (
	// KindCounter marks an integer counter sample.
	KindCounter Kind = iota
	// KindGauge marks a float gauge sample.
	KindGauge
	// KindHistogram marks a distribution sample: Int is the observation
	// count, Sum the observation sum, Buckets the power-of-two bucket
	// counts.
	KindHistogram
)

// Sample is one named value in a Snapshot.
type Sample struct {
	Name  string
	Kind  Kind
	Int   int64   // counter value (KindCounter) or count (KindHistogram)
	Float float64 // gauge value (KindGauge)
	// Sum is the observation sum (KindHistogram only).
	Sum int64
	// Buckets are the power-of-two bucket counts, trimmed to the highest
	// non-zero bucket (KindHistogram only). Bucket 0 holds v <= 0,
	// bucket k holds v in [2^(k-1), 2^k).
	Buckets []int64
}

// Value returns the sample as a float64 regardless of kind: counter value,
// gauge value, or histogram observation count.
func (s Sample) Value() float64 {
	if s.Kind == KindGauge {
		return s.Float
	}
	return float64(s.Int)
}

// Mean returns the mean observation of a histogram sample (0 when empty).
func (s Sample) Mean() float64 {
	if s.Int == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Int)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]) of a
// histogram sample: the inclusive upper edge of the bucket in which the
// q-th observation falls. The answer is exact to within the power-of-two
// bucket resolution and is computed with integer cumulation, so it is
// deterministic.
func (s Sample) Quantile(q float64) float64 {
	if s.Kind != KindHistogram || s.Int == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.Int))
	if rank >= s.Int {
		rank = s.Int - 1
	}
	var cum int64
	for b, c := range s.Buckets {
		cum += c
		if cum > rank {
			if b == 0 {
				return 0
			}
			return float64(uint64(1)<<b - 1)
		}
	}
	return 0
}

// Registry is a named collection of counters and gauges plus attached child
// registries. Metric creation is idempotent (Counter/Gauge return the
// existing metric for a known name) and safe for concurrent use; updates to
// the returned metrics are lock-free.
type Registry struct {
	mu         sync.RWMutex
	order      []string
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	children   []child
}

type child struct {
	prefix string
	reg    *Registry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// checkFree panics if name is already registered as a different kind.
// Callers hold r.mu.
func (r *Registry) checkFree(name, want string) {
	kinds := []struct {
		kind string
		used bool
	}{
		{"counter", r.counters[name] != nil},
		{"gauge", r.gauges[name] != nil},
		{"histogram", r.histograms[name] != nil},
	}
	for _, k := range kinds {
		if k.used && k.kind != want {
			panic(fmt.Sprintf("metrics: %q already registered as a %s", name, k.kind))
		}
	}
}

// Counter returns the counter with the given name, creating it on first
// use. It panics if the name is already a gauge or histogram.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the gauge with the given name, creating it on first use.
// It panics if the name is already a counter or histogram.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the histogram with the given name, creating it on
// first use. It panics if the name is already a counter or gauge.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkFree(name, "histogram")
	h := &Histogram{}
	r.histograms[name] = h
	r.order = append(r.order, name)
	return h
}

// Attach mounts a child registry under a label prefix: its samples appear
// in snapshots as "<prefix>/<name>". Attaching the same registry under
// several parents is allowed (it is read-only from the parent's side).
func (r *Registry) Attach(prefix string, c *Registry) {
	if c == nil {
		panic("metrics: nil child registry")
	}
	if c == r {
		panic("metrics: cannot attach a registry to itself")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.children = append(r.children, child{prefix: prefix, reg: c})
}

// Reset zeroes every counter, gauge and histogram of the registry and its
// attached children, keeping all metric identities registered (the pointers
// handed out by Counter/Gauge/Histogram stay valid and simply read zero).
// It is how a long-lived serving process starts a fresh measurement epoch
// without rebuilding the system. Reset is not atomic with respect to
// concurrent writers: a writer racing the reset may land an update before
// or after the zeroing, the same torn-capture contract snapshots have.
// Snapshots taken across a Reset are healed by Delta's negative-delta
// guard.
func (r *Registry) Reset() {
	entries, children := r.view()
	for _, e := range entries {
		switch {
		case e.c != nil:
			e.c.v.Store(0)
		case e.g != nil:
			e.g.bits.Store(0)
		default:
			for i := range e.h.buckets {
				e.h.buckets[i].Store(0)
			}
			e.h.count.Store(0)
			e.h.sum.Store(0)
		}
	}
	for _, ch := range children {
		ch.reg.Reset()
	}
}

// Snapshot captures every sample of the registry and its children. The
// capture is cheap (one atomic load per metric) and safe while writers are
// concurrently updating; samples appear in registration order, children in
// attachment order after the registry's own samples.
func (r *Registry) Snapshot() Snapshot {
	var snap Snapshot
	r.appendTo(&snap, "")
	return snap
}

// entry is one registered metric: exactly one of c, g and h is set.
type entry struct {
	name string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// view lists the registry's metrics in registration order and its
// children, taken under the read lock so the values can be written through
// the atomics after it is released.
func (r *Registry) view() ([]entry, []child) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	entries := make([]entry, len(r.order))
	for i, name := range r.order {
		entries[i] = entry{name: name, c: r.counters[name], g: r.gauges[name], h: r.histograms[name]}
	}
	return entries, append([]child(nil), r.children...)
}

func (r *Registry) appendTo(snap *Snapshot, prefix string) {
	r.mu.RLock()
	for _, name := range r.order {
		switch {
		case r.counters[name] != nil:
			snap.Samples = append(snap.Samples, Sample{Name: prefix + name, Kind: KindCounter, Int: r.counters[name].Load()})
		case r.gauges[name] != nil:
			snap.Samples = append(snap.Samples, Sample{Name: prefix + name, Kind: KindGauge, Float: r.gauges[name].Load()})
		default:
			h := r.histograms[name]
			snap.Samples = append(snap.Samples, Sample{
				Name: prefix + name, Kind: KindHistogram,
				Int: h.Count(), Sum: h.Sum(), Buckets: h.sample(),
			})
		}
	}
	children := append([]child(nil), r.children...)
	r.mu.RUnlock()
	for _, ch := range children {
		ch.reg.appendTo(snap, prefix+ch.prefix+"/")
	}
}

// CopyFrom sets every counter, gauge and histogram of r to the value of
// the metric registered under the same name in src, then copies src's
// attached children into r's pairwise, in attachment order. The two
// registries must have the same shape: the same names of the same kinds in
// the same registration order, and children under the same prefixes. On a
// mismatch CopyFrom returns an error naming it, and r is left partly
// copied. Like a snapshot, the copy is not atomic with respect to
// concurrent writers of src.
func (r *Registry) CopyFrom(src *Registry) error {
	return r.copyFrom(src, "")
}

// copyFrom is CopyFrom for registries mounted under prefix, which names
// the metrics in its errors.
func (r *Registry) copyFrom(src *Registry, prefix string) error {
	dst, dstChildren := r.view()
	from, fromChildren := src.view()
	if len(dst) != len(from) {
		return fmt.Errorf("metrics: copy of %d metrics under %q into %d", len(from), prefix, len(dst))
	}
	for i, f := range from {
		d := dst[i]
		switch {
		case d.name != f.name:
			return fmt.Errorf("metrics: copy of %q onto %q", prefix+f.name, prefix+d.name)
		case f.c != nil && d.c != nil:
			d.c.v.Store(f.c.Load())
		case f.g != nil && d.g != nil:
			d.g.bits.Store(f.g.bits.Load())
		case f.h != nil && d.h != nil:
			for b := range f.h.buckets {
				d.h.buckets[b].Store(f.h.buckets[b].Load())
			}
			d.h.count.Store(f.h.count.Load())
			d.h.sum.Store(f.h.sum.Load())
		default:
			return fmt.Errorf("metrics: %q is of a different kind in the two registries", prefix+f.name)
		}
	}
	if len(dstChildren) != len(fromChildren) {
		return fmt.Errorf("metrics: copy of %d children under %q into %d", len(fromChildren), prefix, len(dstChildren))
	}
	for i, ch := range fromChildren {
		if dstChildren[i].prefix != ch.prefix {
			return fmt.Errorf("metrics: copy of child %q onto %q", prefix+ch.prefix, prefix+dstChildren[i].prefix)
		}
		if err := dstChildren[i].reg.copyFrom(ch.reg, prefix+ch.prefix+"/"); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is an ordered capture of registry samples at one instant.
type Snapshot struct {
	Samples []Sample
}

// Get returns the sample with the given (fully prefixed) name.
func (s Snapshot) Get(name string) (Sample, bool) {
	for _, smp := range s.Samples {
		if smp.Name == name {
			return smp, true
		}
	}
	return Sample{}, false
}

// Counter returns the int64 value of a counter sample (zero if absent).
func (s Snapshot) Counter(name string) int64 {
	smp, _ := s.Get(name)
	return smp.Int
}

// Delta returns s - prev per sample: counters and histograms subtract
// (histograms count- sum- and bucket-wise), gauges keep the value from s.
// Samples missing from prev are treated as starting at zero.
//
// A negative count cannot arise from monotonic metrics; it means prev was
// taken before a Registry.Reset (or against a different metric
// generation), so the subtraction would report garbage. Delta guards
// against it: a counter whose difference goes negative, or a histogram
// whose count or any bucket goes negative, falls back to the current
// sample — exactly the delta a prev taken at the reset point would give.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	old := make(map[string]Sample, len(prev.Samples))
	for _, smp := range prev.Samples {
		old[smp.Name] = smp
	}
	out := Snapshot{Samples: make([]Sample, 0, len(s.Samples))}
	for _, smp := range s.Samples {
		d := smp
		if p, ok := old[smp.Name]; ok {
			switch smp.Kind {
			case KindCounter:
				d.Int -= p.Int
				if d.Int < 0 {
					d.Int = smp.Int
				}
			case KindHistogram:
				d.Int -= p.Int
				d.Sum -= p.Sum
				d.Buckets = subBuckets(smp.Buckets, p.Buckets)
				if d.Int < 0 || anyNegative(d.Buckets) {
					d = smp
					d.Buckets = append([]int64(nil), smp.Buckets...)
				}
			}
		}
		out.Samples = append(out.Samples, d)
	}
	return out
}

// anyNegative reports whether any bucket count went below zero — the
// signature of a delta taken across a registry reset. (A negative Sum is
// not used as the signal: observations themselves may be negative.)
func anyNegative(buckets []int64) bool {
	for _, b := range buckets {
		if b < 0 {
			return true
		}
	}
	return false
}

// subBuckets returns a - b element-wise, trimmed to the highest non-zero
// bucket (nil when all zero).
func subBuckets(a, b []int64) []int64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int64, n)
	top := -1
	for i := 0; i < n; i++ {
		if i < len(a) {
			out[i] += a[i]
		}
		if i < len(b) {
			out[i] -= b[i]
		}
		if out[i] != 0 {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	return out[:top+1]
}

// addBuckets returns a + b element-wise, trimmed like subBuckets.
func addBuckets(a, b []int64) []int64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int64, n)
	top := -1
	for i := 0; i < n; i++ {
		if i < len(a) {
			out[i] += a[i]
		}
		if i < len(b) {
			out[i] += b[i]
		}
		if out[i] != 0 {
			top = i
		}
	}
	if top < 0 {
		return nil
	}
	return out[:top+1]
}

// Equal reports whether two snapshots carry identical samples in identical
// order — the bit-identity check the sharding golden test relies on.
func (s Snapshot) Equal(o Snapshot) bool {
	if len(s.Samples) != len(o.Samples) {
		return false
	}
	for i, a := range s.Samples {
		b := o.Samples[i]
		if a.Name != b.Name || a.Kind != b.Kind || a.Int != b.Int ||
			math.Float64bits(a.Float) != math.Float64bits(b.Float) ||
			a.Sum != b.Sum || len(a.Buckets) != len(b.Buckets) {
			return false
		}
		for j := range a.Buckets {
			if a.Buckets[j] != b.Buckets[j] {
				return false
			}
		}
	}
	return true
}

// Merge returns a snapshot summing counters (and last-writing gauges) of
// the inputs sample-by-sample after stripping the given per-input prefixes.
// It is the deterministic reduction used to fold per-rank snapshots into
// rank-aggregate totals: the result is independent of the order in which
// the shards executed, because addition commutes and every shard owns
// disjoint metrics until the names are unified here.
func Merge(snaps []Snapshot, stripPrefixes []string) Snapshot {
	sum := make(map[string]Sample)
	var order []string
	for i, snap := range snaps {
		for _, smp := range snap.Samples {
			name := smp.Name
			if i < len(stripPrefixes) && stripPrefixes[i] != "" {
				name = strings.TrimPrefix(name, stripPrefixes[i])
			}
			if prev, ok := sum[name]; ok {
				switch smp.Kind {
				case KindCounter:
					prev.Int += smp.Int
				case KindHistogram:
					prev.Int += smp.Int
					prev.Sum += smp.Sum
					prev.Buckets = addBuckets(prev.Buckets, smp.Buckets)
				default:
					prev.Float = smp.Float
				}
				sum[name] = prev
				continue
			}
			smp.Name = name
			sum[name] = smp
			order = append(order, name)
		}
	}
	out := Snapshot{Samples: make([]Sample, 0, len(order))}
	for _, name := range order {
		out.Samples = append(out.Samples, sum[name])
	}
	return out
}

// String renders the snapshot as an aligned two-column table, one metric
// per line, suitable for terminal output.
func (s Snapshot) String() string {
	var b strings.Builder
	w := 0
	for _, smp := range s.Samples {
		if len(smp.Name) > w {
			w = len(smp.Name)
		}
	}
	for _, smp := range s.Samples {
		switch smp.Kind {
		case KindCounter:
			fmt.Fprintf(&b, "%-*s %d\n", w+2, smp.Name, smp.Int)
		case KindHistogram:
			fmt.Fprintf(&b, "%-*s count=%d sum=%d p50<=%g p99<=%g\n",
				w+2, smp.Name, smp.Int, smp.Sum, smp.Quantile(0.50), smp.Quantile(0.99))
		default:
			fmt.Fprintf(&b, "%-*s %.6g\n", w+2, smp.Name, smp.Float)
		}
	}
	return b.String()
}

// Sorted returns a copy of the snapshot with samples in name order; useful
// when rendering snapshots whose registration order is not meaningful.
func (s Snapshot) Sorted() Snapshot {
	out := Snapshot{Samples: append([]Sample(nil), s.Samples...)}
	sort.Slice(out.Samples, func(i, j int) bool { return out.Samples[i].Name < out.Samples[j].Name })
	return out
}
