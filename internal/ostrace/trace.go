// Package ostrace models the operating-system side of the evaluation: the
// memory-utilization behaviour of the three published datacenter traces the
// paper samples (Google, Alibaba, Bitbrains — Table I and Figure 5), and a
// page allocator that cleanses pages with zeros at deallocation time
// (Section III-B), which is the OS change ZERO-REFRESH relies on for
// unallocated-page refresh skipping.
//
// The original traces are not redistributable; each is modelled as a
// truncated-normal utilization distribution whose mean matches Table I
// (Google 70%, Alibaba 88%, Bitbrains 28%) and whose spread reproduces the
// qualitative CDF shapes of Figure 5 (Alibaba tight around high
// utilization, Bitbrains wide around low utilization).
package ostrace

import (
	"math"

	"zerorefresh/internal/workload"
)

// TraceModel is a synthetic stand-in for one datacenter utilization trace.
type TraceModel struct {
	// Name identifies the trace.
	Name string
	// TableIMean is the average allocated-memory fraction the paper
	// reports for the trace (Table I).
	TableIMean float64
	// Mu and Sigma parameterize the underlying normal distribution,
	// truncated to [0, 1].
	Mu, Sigma float64
}

// The three traces of Table I / Figure 5.
var (
	Google    = TraceModel{Name: "google", TableIMean: 0.70, Mu: 0.70, Sigma: 0.10}
	Alibaba   = TraceModel{Name: "alibaba", TableIMean: 0.88, Mu: 0.88, Sigma: 0.045}
	Bitbrains = TraceModel{Name: "bitbrains", TableIMean: 0.28, Mu: 0.27, Sigma: 0.16}
)

// Traces returns the three models in Table I order.
func Traces() []TraceModel { return []TraceModel{Google, Alibaba, Bitbrains} }

// ByName looks a trace up.
func ByName(name string) (TraceModel, bool) {
	for _, t := range Traces() {
		if t.Name == name {
			return t, true
		}
	}
	return TraceModel{}, false
}

// Utilization returns the allocated-memory fraction at trace step `step`,
// deterministic in (seed, step). Values are clamped to [0.01, 1].
func (m TraceModel) Utilization(seed uint64, step int) float64 {
	rng := workload.NewSplitMix(workload.Hash(seed, workload.HashString(m.Name), uint64(step)))
	// Box-Muller from two uniforms.
	u1, u2 := rng.Float64(), rng.Float64()
	if u1 <= 0 {
		u1 = 1e-12
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	v := m.Mu + m.Sigma*z
	if v < 0.01 {
		v = 0.01
	}
	if v > 1 {
		v = 1
	}
	return v
}

// CDF returns P(utilization <= x) for the untruncated model — the curve of
// Figure 5 (truncation shifts only the extreme tails).
func (m TraceModel) CDF(x float64) float64 {
	return 0.5 * (1 + math.Erf((x-m.Mu)/(m.Sigma*math.Sqrt2)))
}

// EmpiricalMean averages n utilization samples; it should approximate the
// Table I mean.
func (m TraceModel) EmpiricalMean(seed uint64, n int) float64 {
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += m.Utilization(seed, i)
	}
	return sum / float64(n)
}

// CDFSeries evaluates the CDF at `points` evenly spaced utilizations in
// [0,1], for regenerating Figure 5.
func (m TraceModel) CDFSeries(points int) (xs, ys []float64) {
	xs = make([]float64, points)
	ys = make([]float64, points)
	for i := 0; i < points; i++ {
		x := float64(i) / float64(points-1)
		xs[i] = x
		ys[i] = m.CDF(x)
	}
	return xs, ys
}
