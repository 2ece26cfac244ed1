package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"zerorefresh/internal/core"
	zrmetrics "zerorefresh/internal/metrics"
	"zerorefresh/internal/obs"
	"zerorefresh/internal/sim"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/workload"
)

func quickOpts() sim.Options {
	p, _ := workload.ByName("sphinx3")
	return sim.Options{
		Capacity:   4 << 20,
		Windows:    2,
		Seed:       1,
		Benchmarks: []workload.Profile{p},
	}
}

// TestRunDispatchesEveryExperiment runs every catalogue entry through
// zrsim's dispatch in JSON format: each must print one JSON table, so
// -exp all -format json is a stream of JSON documents.
func TestRunDispatchesEveryExperiment(t *testing.T) {
	o := quickOpts()
	for _, e := range sim.Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			decodeTableJSON(t, e.ID, stdoutOf(t, func() error { return runJSON(e.ID, o) }))
		})
	}
}

// TestTable2FormatsAsJSON checks that -exp table2 honours -format json.
func TestTable2FormatsAsJSON(t *testing.T) {
	out := stdoutOf(t, func() error { return runJSON("table2", quickOpts()) })
	if tab := decodeTableJSON(t, "table2", out); len(tab.Rows) == 0 {
		t.Fatalf("table2 JSON has no rows:\n%s", out)
	}
}

// runJSON runs experiment id as -format json does.
func runJSON(id string, o sim.Options) error {
	defer func(old bool) { jsonOut = old }(jsonOut)
	jsonOut = true
	return run(id, o)
}

// stdoutOf returns what fn prints to stdout.
func stdoutOf(t *testing.T, fn func() error) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		r.Close()
		out <- b
	}()
	ferr := fn()
	os.Stdout = old
	w.Close()
	b := <-out
	if ferr != nil {
		t.Fatal(ferr)
	}
	return b
}

// jsonTable is the document Table.JSON writes.
type jsonTable struct {
	Title string
	Rows  []struct {
		Name   string
		Values []float64
	}
}

// decodeTableJSON decodes out as exactly one JSON table.
func decodeTableJSON(t *testing.T, id string, out []byte) jsonTable {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(out))
	var tab jsonTable
	if err := dec.Decode(&tab); err != nil {
		t.Fatalf("%s: output is not a JSON table: %v\n%s", id, err, out)
	}
	if dec.More() || tab.Title == "" {
		t.Fatalf("%s: want one titled JSON table, got:\n%s", id, out)
	}
	return tab
}

func TestWriteTimelineAndTraceExporters(t *testing.T) {
	dir := t.TempDir()
	o := quickOpts()
	o.Trace = trace.New(1 << 8)
	o.Timeline = true
	_, epochs, err := sim.RunSmoke(o)
	if err != nil {
		t.Fatal(err)
	}
	csvPath := dir + "/m.csv"
	jsonPath := dir + "/m.json"
	tracePath := dir + "/t.json"
	if err := writeTimeline(csvPath, epochs); err != nil {
		t.Fatal(err)
	}
	if err := writeTimeline(jsonPath, epochs); err != nil {
		t.Fatal(err)
	}
	if err := writeTimeline("", epochs); err != nil {
		t.Fatalf("empty path must be a no-op, got %v", err)
	}
	if err := writeTrace(tracePath, o.Trace); err != nil {
		t.Fatal(err)
	}
	for path, prefix := range map[string]string{
		csvPath:   "window,start_ns",
		jsonPath:  "[",
		tracePath: `{"traceEvents":[`,
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), prefix) {
			t.Fatalf("%s: got prefix %q, want %q", path, string(b[:min(len(b), 40)]), prefix)
		}
	}
}

func TestRunRejectsUnknownExperiment(t *testing.T) {
	if err := run("fig99", quickOpts()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestCheckScaleRejectsNonPositive pins the usage check zrsim runs before
// any experiment: a capacity or window count below 1 is an error, and so
// is a capacity whose byte count overflows (1<<44 MB shifts to 0 bytes);
// the smallest and largest valid values pass.
func TestCheckScaleRejectsNonPositive(t *testing.T) {
	for _, c := range []struct {
		capacity int64
		windows  int
		ok       bool
	}{
		{2, -1, false},
		{2, 0, false},
		{0, 8, false},
		{-4, 8, false},
		{1, 1, true},
		{32, 8, true},
		{math.MaxInt64 >> 20, 8, true},
		{1 << 43, 8, false}, // math.MaxInt64>>20 + 1
		{1 << 44, 8, false},
		{math.MaxInt64, 8, false},
	} {
		if err := checkScale(c.capacity, c.windows); (err == nil) != c.ok {
			t.Errorf("checkScale(%d, %d) = %v, want ok=%v", c.capacity, c.windows, err, c.ok)
		}
	}
}

// TestObserverMountsEverySystemOnce runs a multi-unit experiment through
// the observer zrsim assembles and checks that every system it built got
// its own "sysN/" mount: N runs from 0 to the number of systems, each
// once. The units build their systems in parallel, so an unguarded count
// hands two systems the same N (and races under -race).
func TestObserverMountsEverySystemOnce(t *testing.T) {
	plane := obs.NewPlane(zrmetrics.NewRegistry(), &core.Progress{}, 0)
	rule, err := obs.ParseRule("viol:dram.decay_events>0")
	if err != nil {
		t.Fatal(err)
	}
	plane.InstallWatchdog([]obs.Rule{rule}, 1)
	o := quickOpts()
	o.Windows = 1
	mcf, _ := workload.ByName("mcf")
	o.Benchmarks = append(o.Benchmarks, mcf)
	o.Observer = observer(plane)
	if err := run("fig14", o); err != nil {
		t.Fatal(err)
	}
	systems := int(plane.Progress.Systems())
	if want := len(o.Benchmarks) * len(sim.Scenarios()); systems != want {
		t.Fatalf("%d systems built, want %d", systems, want)
	}
	mounts := map[string]int{}
	for _, smp := range plane.Registry.Snapshot().Samples {
		if strings.HasSuffix(smp.Name, "/core.windows") {
			mounts[strings.TrimSuffix(smp.Name, "/core.windows")]++
		}
	}
	for n := 0; n < systems; n++ {
		if got := mounts[fmt.Sprintf("sys%d", n)]; got != 1 {
			t.Errorf("sys%d mounted %d times, want once", n, got)
		}
	}
	if len(mounts) != systems {
		t.Errorf("%d distinct mounts for %d systems: %v", len(mounts), systems, mounts)
	}
}

// TestParseArgs pins the command-line contract: defaults, -exp all, and
// the values rejected with an error naming the flag — an unknown -format
// names the accepted ones, and an unknown or repeated benchmark is named
// without the spaces around it.
func TestParseArgs(t *testing.T) {
	a, err := parseArgs(nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if a.opts.Capacity != 32<<20 || a.opts.Windows != 8 || a.opts.Seed != 1 || a.format != "table" ||
		len(a.ids) != 1 || a.ids[0] != "fig14" || a.opts.Trace != nil || a.opts.Benchmarks != nil {
		t.Fatalf("defaults parsed as %+v", a)
	}
	a, err = parseArgs([]string{"-exp", "all", "-benchmarks", "mcf, sphinx3", "-format", "csv"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.ids) < 10 || slices.Contains(a.ids, "violation") || len(a.opts.Benchmarks) != 2 || a.format != "csv" {
		t.Fatalf("-exp all parsed as ids %v, %d benchmarks, format %q", a.ids, len(a.opts.Benchmarks), a.format)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-format", "xml"}, "table, csv, json"},
		{[]string{"-exp", "fig99"}, "fig99"},
		{[]string{"-benchmarks", "mcf,nope"}, "nope"},
		{[]string{"-benchmarks", "mcf, nope "}, `"nope"`},
		{[]string{"-benchmarks", "mcf,mcf,sphinx3"}, `"mcf" named twice`},
		{[]string{"-benchmarks", "sphinx3, mcf,sphinx3 "}, `"sphinx3" named twice`},
		{[]string{"-capacity", "0"}, "-capacity"},
		{[]string{"-windows", "-1"}, "-windows"},
		{[]string{"-watch", "bad"}, "bad"},
		{[]string{"-exp", "smoke", "extra"}, "extra"},
		{[]string{"-bogus"}, "-bogus"},
	} {
		if _, err := parseArgs(c.args, io.Discard); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseArgs(%q) = %v, want an error naming %q", c.args, err, c.want)
		}
	}
}

// FuzzParseArgs feeds parseArgs NUL-separated argument lists. Each must
// parse to options a run accepts or to an error — never a panic — and
// parsing starts no run: it builds no system, so the options' tracer, if
// any, holds no shard.
func FuzzParseArgs(f *testing.F) {
	for _, s := range []string{
		"",
		"-exp\x00smoke\x00-capacity\x004\x00-windows\x001\x00-format\x00xml",
		"-exp\x00all\x00-benchmarks\x00mcf,sphinx3\x00-format\x00json",
		"-capacity\x008796093022208",
		"-trace\x00t.ndjson\x00-trace-cap\x00-5\x00-watch\x00v:dram.decay_events>0",
		"-list\x00-h",
		"-benchmarks\x00mcf, sphinx3,mcf",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := parseArgs(strings.Split(s, "\x00"), io.Discard)
		if err != nil {
			return
		}
		if a.opts.Capacity < 1<<20 || a.opts.Windows < 1 || len(a.ids) == 0 || !slices.Contains(formats, a.format) {
			t.Fatalf("%q parsed to unusable options %+v", s, a)
		}
		for _, id := range a.ids {
			if _, ok := sim.ExperimentByID(id); !ok {
				t.Fatalf("%q parsed to unknown experiment %q", s, id)
			}
		}
		for i, p := range a.opts.Benchmarks {
			if slices.ContainsFunc(a.opts.Benchmarks[:i], func(q workload.Profile) bool { return q.Name == p.Name }) {
				t.Fatalf("%q parsed to benchmark %q twice", s, p.Name)
			}
		}
		if a.opts.Trace != nil && len(a.opts.Trace.Shards()) != 0 {
			t.Fatalf("%q: parsing opened trace shards", s)
		}
	})
}
