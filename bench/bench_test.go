package main

import (
	"bytes"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"zerorefresh/internal/sim"
	"zerorefresh/internal/trace"
)

// small shrinks a workload's options to 2 MB and 2 windows.
func small(w *workloadSpec, seed uint64) sim.Options {
	o := w.options(seed)
	o.Capacity = 2 << 20
	o.Windows = 2
	return o
}

func mustWorkload(t *testing.T, name string) *workloadSpec {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return w
}

// TestMirrorsMatchExperiments pins every traced mirror bit-identical to the
// experiment it re-drives, so the spans time exactly the untraced work.
func TestMirrorsMatchExperiments(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := small(w, 7)
			want, err := w.run(o)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			m := newMirror()
			m.l.begin(spanRep)
			got, err := w.mirror(m, o)
			m.l.end()
			if err != nil {
				t.Fatalf("mirror: %v", err)
			}
			if err := sameRows(got, want); err != nil {
				t.Fatalf("mirror differs from the experiment: %v", err)
			}
			if len(m.l.stack) != 0 {
				t.Fatalf("%d spans left open", len(m.l.stack))
			}
			if m.lineCalls == 0 || m.lineCalls != m.writeCalls {
				t.Fatalf("LineAt calls %d, WriteLineAt calls %d", m.lineCalls, m.writeCalls)
			}
		})
	}
}

// TestScenarioMirrorMatchesRunScenario compares whole results, metrics
// snapshot and timeline included, and the exported trace byte for byte.
func TestScenarioMirrorMatchesRunScenario(t *testing.T) {
	o := small(mustWorkload(t, "traced"), 3)
	prof := o.Benchmarks[0]
	for _, frac := range []float64{1.0, 0.28} {
		wantTr, gotTr := trace.New(1<<18), trace.New(1<<18)
		o.Trace = wantTr
		want, err := sim.RunScenario(o, prof, frac)
		if err != nil {
			t.Fatal(err)
		}
		o.Trace = gotTr
		got, err := newMirror().scenario(o, prof, frac)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("alloc %v: mirror result differs from sim.RunScenario", frac)
		}
		var wb, gb bytes.Buffer
		if err := trace.WriteNDJSON(&wb, wantTr); err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteNDJSON(&gb, gotTr); err != nil {
			t.Fatal(err)
		}
		if wantTr.Dropped() != 0 || !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatalf("alloc %v: traces differ (%d vs %d bytes, %d dropped)", frac, gb.Len(), wb.Len(), wantTr.Dropped())
		}
	}
}

func TestPerturbedGoldenFails(t *testing.T) {
	w := mustWorkload(t, "fig17")
	o := small(w, 1)
	ref, err := w.run(o)
	if err != nil {
		t.Fatal(err)
	}
	good := []byte(ref.JSON())
	if r := timedRun(w, o, good, 0); r.failed != 0 || r.values["pass_frac"] != 1 {
		t.Fatalf("correct golden: %d of %d failed", r.failed, r.attempted)
	}
	bad := append([]byte(nil), good...)
	i := bytes.Index(bad, []byte(`"values":[0.`)) + len(`"values":[0.`)
	bad[i] = '0' + (bad[i]-'0'+1)%10
	r := timedRun(w, o, bad, 0)
	if r.failed != r.attempted || r.values["pass_frac"] != 0 {
		t.Fatalf("perturbed golden: %d of %d failed, pass_frac %v", r.failed, r.attempted, r.values["pass_frac"])
	}
}

func TestGoldensCommitted(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range goldenSeeds {
			if golden(w.name, seed) == nil {
				t.Errorf("missing golden %s", goldenName(w.name, seed))
			}
		}
	}
	if golden("fig14", 4) != nil {
		t.Error("seed 4 should have no golden")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}

func TestBenchmarkJSON(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d", spec.RunSeconds)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths %v", spec.Paths)
	}

	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("bad or repeated name %q", name)
		}
		seen[name] = true
	}
	var wl []string
	for _, w := range spec.Workloads {
		check(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(wl, workloadNames()) {
		t.Errorf("declared workloads %v, program has %v", wl, workloadNames())
	}

	var setupBound, maxBound float64
	declared := map[string]bool{}
	for i, m := range spec.EndToEnd {
		check(m.Name)
		declared[m.Name] = true
		if i >= len(endToEnd) || endToEnd[i].name != m.Name || endToEnd[i].unit != m.Unit || endToEnd[i].better != m.Better {
			t.Errorf("end-to-end metric %d: declared %+v does not match the program", i, m)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else if m.Bound > maxBound {
			maxBound = m.Bound
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics declared, program prints %d", len(spec.EndToEnd), len(endToEnd))
	}
	if setupBound < maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}

	for i, m := range spec.PerLayer {
		check(m.Name)
		if i >= len(perLayer) || perLayer[i].name != m.Name || perLayer[i].unit != m.Unit || perLayer[i].better != m.Better {
			t.Errorf("per-layer metric %d: declared %+v does not match the program", i, m)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics declared, program prints %d", len(spec.PerLayer), len(perLayer))
	}
	for _, d := range perLayer {
		if len(d.moves) == 0 {
			t.Errorf("%s names no end-to-end metric it moves", d.name)
		}
		for _, mv := range d.moves {
			metric, workload, ok := strings.Cut(mv, "@")
			if _, known := workloadByName(workload); !ok || !declared[metric] || !known {
				t.Errorf("%s moves %q: not a declared metric@workload", d.name, mv)
			}
		}
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

func TestPrintedMetricsMatchDeclared(t *testing.T) {
	w := mustWorkload(t, "fig17")
	o := small(w, 1)
	r := timedRun(w, o, nil, 0)
	if !reflect.DeepEqual(keys(r.values), sorted(names(endToEnd))) {
		t.Errorf("timed run prints %v, declared %v", keys(r.values), sorted(names(endToEnd)))
	}
	if r.failed != 0 {
		t.Errorf("timed run: %d of %d failed", r.failed, r.attempted)
	}

	r, err := tracedRun(w, o, nil, 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keys(r.values), sorted(names(perLayer))) {
		t.Errorf("traced run prints %v, declared %v", keys(r.values), sorted(names(perLayer)))
	}
	if r.failed != 0 {
		t.Errorf("traced run: %d of %d failed", r.failed, r.attempted)
	}
	if r.values["workload.lines"] == 0 || r.values["memctrl.closedloop_s"] == 0 {
		t.Errorf("traced fig17 misses its layers: %v", r.values)
	}
}

func TestFoldTraces(t *testing.T) {
	text := []byte(`File: bench
Type: cpu
-----------+-------------------------------------------------------
         3   zerorefresh/internal/rng.Hash (inline)
             zerorefresh/internal/workload.Profile.LineAt
             main.(*mirror).fillPage
             main.main
-----------+-------------------------------------------------------
         2   runtime.memmove
             zerorefresh/internal/dram.(*Module).WriteLineWords
             main.main
-----------+-------------------------------------------------------
         4   time.now
             main.(*ledger).begin
             zerorefresh/internal/core.(*System).RunUntil
-----------+-------------------------------------------------------
         1   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	counts, total, err := foldTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"rng": 3, "dram": 2, "bench": 4, "runtime": 1}
	if total != 10 || !reflect.DeepEqual(counts, want) {
		t.Fatalf("fold = %v (total %d), want %v", counts, total, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each data set.
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v", m)
	}
}

func TestLedgerSelfTimes(t *testing.T) {
	var l ledger
	l.begin(spanRep)
	l.begin(spanUnit)
	l.begin(spanLine)
	time.Sleep(2 * time.Millisecond)
	l.end()
	l.begin(spanWrite)
	l.end()
	l.end()
	l.end()
	root := l.total(spanRep)
	if self := l.selfSum(); self != root {
		t.Fatalf("self times sum to %v, root span %v", self, root)
	}
	if l.total(spanLine) < 2*time.Millisecond || l.self(spanUnit) >= l.total(spanUnit) {
		t.Fatalf("line %v, unit self %v total %v", l.total(spanLine), l.self(spanUnit), l.total(spanUnit))
	}
	if st := l.stats[spanUnit][spanLine]; st.count != 1 {
		t.Fatalf("line span under unit counted %d times", st.count)
	}
}
