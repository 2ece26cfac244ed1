package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
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
