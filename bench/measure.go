package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"syscall"
	"time"

	"zerorefresh/internal/sim"
)

// report is the outcome of one run: the repetitions attempted and failed,
// and every printed metric with its sample count.
type report struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
}

func newReport() *report {
	return &report{values: make(map[string]float64), samples: make(map[string]int)}
}

func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// fail records a failed repetition; it does not abort the run.
func (r *report) fail(what string, err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "FAIL %s: %v\n", what, err)
}

// rep is the measurement of one timed experiment call.
type rep struct {
	wall, cpu float64 // seconds
	allocMB   float64
}

const mib = 1 << 20

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measureSetup times building and populating one system at the workload's
// geometry, and measures the live heap that system holds.
func measureSetup(w *workloadSpec, o sim.Options) (setup, memMB float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	sys, err := w.setup(o)
	setup = time.Since(t0).Seconds()
	if err != nil {
		return setup, 0, fmt.Errorf("setup: %w", err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(sys)
	return setup, float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / mib, nil
}

// timeExperiment times one untraced experiment call with its allocations
// and CPU time, starting from a collected heap.
func timeExperiment(w *workloadSpec, o sim.Options) (rep, *sim.Table, bool, error) {
	var r rep
	o, decayed := guardDecays(o)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := cpuTime()
	t0 := time.Now()
	t, err := w.run(o)
	r.wall = time.Since(t0).Seconds()
	r.cpu = (cpuTime() - c0).Seconds()
	runtime.ReadMemStats(&m1)
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	return r, t, decayed.Load(), err
}

// minReps is the fewest repetitions a timed run takes.
const minReps = 3

// setupReps is how many repetitions, the first ones, also measure set-up.
// The rest of the budget goes to experiment repetitions only: the more of
// them, the more likely one runs while the host is undisturbed.
const setupReps = 5

// timedRun is the closed loop of the end-to-end run: one client, each
// repetition (set-up in the first setupReps, then the experiment) starting
// when the previous one returns. After minReps, a repetition starts only
// if one more as long as the last would end within budget, so a run lasts
// at most about budget. There is no warm-up repetition: users pay lazy
// set-up on every invocation.
//
// The experiment's wall and CPU times are the fastest repetition's. Other
// tenants of the host slow this process for seconds at a time, often for
// most of a run, and a median over the repetitions follows them; the
// fastest repetition is the one they disturbed least. Set-up time and
// memory are medians.
func timedRun(w *workloadSpec, o sim.Options, golden []byte, budget time.Duration) *report {
	res := newReport()
	v := verifier{w: w, golden: golden}
	var (
		reps         []rep
		setups, mems []float64
		last         time.Duration
	)
	start := time.Now()
	for res.attempted < minReps || time.Since(start)+last < budget {
		t0 := time.Now()
		res.attempted++
		var err error
		if res.attempted <= setupReps {
			var setup, memMB float64
			if setup, memMB, err = measureSetup(w, o); err == nil {
				setups, mems = append(setups, setup), append(mems, memMB)
			}
		}
		if err == nil {
			r, t, decayed, runErr := timeExperiment(w, o)
			reps = append(reps, r)
			err = v.check(t, runErr, decayed)
		}
		if err != nil {
			res.fail(fmt.Sprintf("rep %d", res.attempted), err)
		}
		last = time.Since(t0)
	}
	pick := func(agg func([]float64) float64, f func(rep) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return agg(xs)
	}
	n := len(reps)
	res.set("wall_s", pick(minimum, func(r rep) float64 { return r.wall }), n)
	res.set("cpu_s", pick(minimum, func(r rep) float64 { return r.cpu }), n)
	res.set("alloc_mb", pick(median, func(r rep) float64 { return r.allocMB }), n)
	res.set("setup_s", median(setups), len(setups))
	res.set("mem_mb", median(mems), len(mems))
	res.set("pass_frac", float64(res.attempted-res.failed)/float64(res.attempted), res.attempted)
	return res
}

// overheadPairs is how many traced/untraced pairs the tracing-overhead
// estimate takes.
const overheadPairs = 3

// tracedRun is the per-layer run. It times one untraced repetition (the
// reference for the mirror's output and for the overhead ratios), then
// re-drives the experiment through its layer calls under a CPU profile,
// one repetition at least and more while another would end within budget,
// and folds the profile into module shares.
func tracedRun(w *workloadSpec, o sim.Options, golden []byte, budget time.Duration, profDir string) (*report, error) {
	start := time.Now()
	res := newReport()
	v := verifier{w: w, golden: golden}

	res.attempted++
	base, ref, decayed, err := timeExperiment(w, o)
	if err := v.check(ref, err, decayed); err != nil {
		res.fail("untraced rep", err)
	}

	overhead := 0.0
	if w.untraced != nil {
		var with, without []float64
		for i := 0; i < overheadPairs; i++ {
			for k := 0; k < 2; k++ {
				runtime.GC()
				t0 := time.Now()
				if (i+k)%2 == 0 {
					_, err = w.run(o)
					with = append(with, time.Since(t0).Seconds())
				} else {
					err = w.untraced(o)
					without = append(without, time.Since(t0).Seconds())
				}
				if err != nil {
					return nil, fmt.Errorf("tracing overhead pair: %w", err)
				}
			}
		}
		overhead = median(with)/median(without) - 1
	}

	if err := os.MkdirAll(profDir, 0o755); err != nil {
		return nil, err
	}
	profPath := filepath.Join(profDir, w.name+".cpu.pprof")
	f, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.StartCPUProfile(f); err != nil {
		return nil, err
	}
	var (
		layers []map[string]float64
		walls  []float64
		last   *mirror
		wall   time.Duration
	)
	for len(layers) == 0 || time.Since(start)+wall < budget {
		res.attempted++
		m := newMirror()
		t0 := time.Now()
		m.l.begin(spanRep)
		t, err := w.mirror(m, o)
		m.l.end()
		wall = time.Since(t0)
		lv := m.layerValues()
		if err == nil && ref != nil {
			err = sameRows(t, ref)
		}
		if err == nil {
			err = m.balanced(wall)
		}
		if err == nil && len(layers) > 0 {
			err = sameCounts(lv, layers[0])
		}
		if err != nil {
			res.fail(fmt.Sprintf("mirror rep %d", len(layers)+1), err)
		}
		walls = append(walls, wall.Seconds())
		layers = append(layers, lv)
		last = m
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "spans of the last traced repetition (%s):\n", w.name)
	last.l.write(os.Stderr)

	n := len(layers)
	for name := range layers[0] {
		xs := make([]float64, n)
		for i, l := range layers {
			xs[i] = l[name]
		}
		res.set(name, median(xs), n)
	}
	res.set("trace.overhead_frac", overhead, overheadPairs)
	res.set("sim.parallel_eff", base.cpu/(base.wall*float64(runtime.GOMAXPROCS(0))), 1)
	res.set("bench.span_overhead_frac", median(walls)/base.cpu-1, n)

	shares, samples, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}
	sum := 0.0
	for _, m := range modules {
		res.set(m+".share", shares[m], int(samples))
		sum += shares[m]
	}
	if sum < 99 || sum > 101 {
		return nil, fmt.Errorf("module shares sum to %.2f%%, want 100±1%%: %v", sum, shares)
	}
	return res, nil
}

// sameCounts checks that a repetition's counts of simulated work, which
// must repeat exactly, equal the first repetition's.
func sameCounts(got, first map[string]float64) error {
	for _, d := range perLayer {
		if d.unit == "count" && got[d.name] != first[d.name] {
			return fmt.Errorf("%s is %v, first repetition %v", d.name, got[d.name], first[d.name])
		}
	}
	return nil
}

// balanced checks the ledger after a repetition: every span closed, and the
// spans' self times adding up to within 5% of the repetition's wall time.
func (m *mirror) balanced(wall time.Duration) error {
	if len(m.l.stack) != 0 {
		return fmt.Errorf("%d spans left open", len(m.l.stack))
	}
	self := m.l.selfSum()
	if d := (self - wall).Seconds(); d > 0.05*wall.Seconds() || d < -0.05*wall.Seconds() {
		return fmt.Errorf("span self times sum to %v, wall time %v", self, wall)
	}
	return nil
}

// layerValues derives one traced repetition's per-layer metrics from its
// spans and from the registries of the systems it built.
func (m *mirror) layerValues() map[string]float64 {
	sec := func(s span) float64 { return m.l.total(s).Seconds() }
	return map[string]float64{
		"workload.line_s":           sec(spanLine),
		"workload.lines":            float64(m.lineCalls),
		"memctrl.lines_written":     m.counts["ctrl.lines_written"],
		"transform.ops":             m.counts["transform.ops"],
		"core.newsystem_s":          sec(spanNewSystem),
		"ostrace.alloc_s":           m.l.self(spanAlloc).Seconds(),
		"memctrl.write_s":           sec(spanWrite),
		"memctrl.write_ns_per_line": ratio(float64(m.l.total(spanWrite).Nanoseconds()), float64(m.writeCalls)),
		"memctrl.closedloop_s":      sec(spanClosedLoop),
		"dram.materialized_rows":    m.counts["dram.storage.materialized_rows"],
		"dram.arena_reserved_mb":    m.counts["dram.storage.arena_reserved_bytes"] / mib,
		"dram.cow_hits":             m.counts["dram.storage.cow_hits"],
		"dram.probe_s":              sec(spanProbe),
		"refresh.window_s":          sec(spanWindow),
		"refresh.steps_considered":  m.counts["refresh.steps_considered"],
		"refresh.skip_frac":         ratio(m.counts["refresh.steps_skipped"], m.counts["refresh.steps_considered"]),
		"core.events_s":             m.l.self(spanEvents).Seconds(),
		"core.events_popped":        float64(m.events.Popped),
		"core.replayed_frac":        ratio(float64(m.events.Replayed), float64(m.events.Windows)),
		"trace.events":              m.traceEvents,
		"trace.dropped":             m.traceDropped,
		"trace.export_s":            sec(spanExport),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// minimum returns the smallest of xs, or 0 for none.
func minimum(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// median returns the median of xs (the mean of the middle two for an even
// count). It does not modify xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// writeTable prints every metric with its unit and sample count.
func writeTable(w io.Writer, r *report, defs []metricDef) {
	fmt.Fprintf(w, "%-28s %16s %-6s %8s\n", "metric", "value", "unit", "samples")
	for _, d := range defs {
		fmt.Fprintf(w, "%-28s %16.6g %-6s %8d\n", d.name, r.values[d.name], d.unit, r.samples[d.name])
	}
	fmt.Fprintf(w, "repetitions attempted %d, failed %d\n", r.attempted, r.failed)
}
