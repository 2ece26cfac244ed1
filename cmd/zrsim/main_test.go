package main

import (
	"fmt"
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

func TestRunDispatchesEveryExperiment(t *testing.T) {
	o := quickOpts()
	for _, id := range []string{
		"table1", "table2", "fig4", "fig5", "fig6",
		"fig14", "fig15", "fig16", "fig17", "fig18",
		"cmdlevel", "power", "smoke", "timeline",
	} {
		if err := run(id, o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
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
