package sim

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zerorefresh/internal/trace"
)

// -update regenerates the golden observability artifacts:
//
//	go test ./internal/sim -run TestSmokeGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// smokeGoldenOptions is the pinned scenario behind the golden artifacts: a
// small fixed-seed smoke run with a deliberately tiny per-shard ring so the
// committed trace stays reviewable (the ring keeps the newest events and
// reports the drop count in the trace itself).
func smokeGoldenOptions() Options {
	return Options{
		Capacity:   4 << 20,
		Windows:    2,
		Warmup:     1,
		Seed:       1,
		Benchmarks: profiles("sphinx3"),
		Trace:      trace.New(1 << 8),
	}
}

// runSmokeArtifacts produces the three exported artifacts of a smoke run:
// the Chrome trace-event JSON, the NDJSON trace (the `zrsim -trace
// run.ndjson` / zrquery interchange format), and the per-window timeline
// CSV.
func runSmokeArtifacts(t *testing.T) (traceJSON, traceNDJSON, timelineCSV string) {
	t.Helper()
	o := smokeGoldenOptions()
	_, epochs, err := RunSmoke(o)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := trace.WriteChrome(&b, o.Trace); err != nil {
		t.Fatal(err)
	}
	var nb strings.Builder
	if err := trace.WriteNDJSON(&nb, o.Trace); err != nil {
		t.Fatal(err)
	}
	return b.String(), nb.String(), TimelineCSV(epochs)
}

// TestSmokeGoldenArtifacts pins the smoke run's trace JSON and timeline CSV
// byte-for-byte: two same-seed runs must produce identical artifacts, and
// both must match the committed golden files. Any change to event emission,
// histogram bucketing, or exporter formatting shows up here as a readable
// diff (regenerate deliberately with -update).
func TestSmokeGoldenArtifacts(t *testing.T) {
	traceJSON, traceNDJSON, timelineCSV := runSmokeArtifacts(t)
	traceJSON2, traceNDJSON2, timelineCSV2 := runSmokeArtifacts(t)
	if traceJSON != traceJSON2 {
		t.Fatal("trace JSON differs between two same-seed runs")
	}
	if traceNDJSON != traceNDJSON2 {
		t.Fatal("trace NDJSON differs between two same-seed runs")
	}
	if timelineCSV != timelineCSV2 {
		t.Fatal("timeline CSV differs between two same-seed runs")
	}

	goldens := map[string]string{
		"smoke_trace.json":   traceJSON,
		"smoke_trace.ndjson": traceNDJSON,
		"smoke_timeline.csv": timelineCSV,
	}
	for name, got := range goldens {
		path := filepath.Join("testdata", name)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s drifted from golden (regenerate deliberately with -update); got %d bytes, want %d",
				name, len(got), len(want))
		}
	}
}

// TestRunTimelineReport checks the human-readable per-window report: one row
// per captured epoch, warmup included, with a heavy first window (the
// access-bit table starts conservatively all-set) and sane later windows.
func TestRunTimelineReport(t *testing.T) {
	o := quickOptions()
	o.Benchmarks = profiles("sphinx3")
	tb, epochs, err := RunTimeline(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != o.Windows+o.Warmup {
		t.Fatalf("captured %d epochs, want %d", len(epochs), o.Windows+o.Warmup)
	}
	if len(tb.Rows) != len(epochs) {
		t.Fatalf("%d report rows for %d epochs", len(tb.Rows), len(epochs))
	}
	warmup, later := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	if warmup.Values[1] <= later.Values[1] {
		t.Fatalf("warmup window refreshed %g rows, later window %g; warmup must dominate",
			warmup.Values[1], later.Values[1])
	}
	norm := later.Values[3]
	if norm <= 0 || norm >= 1 {
		t.Fatalf("measured-window norm refresh = %g, want in (0,1)", norm)
	}
}

// TestSmokeTableShape checks the smoke experiment's metrics table carries
// per-rank histogram expansions and the closed-loop demand-miss latency
// distribution.
func TestSmokeTableShape(t *testing.T) {
	o := quickOptions()
	o.Benchmarks = profiles("sphinx3")
	tb, epochs, err := RunSmoke(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) == 0 {
		t.Fatal("smoke run captured no epochs")
	}
	for _, name := range []string{
		"rank0/dram.refresh_interval_ns.count",
		"rank0/refresh.discharged_run_len.count",
		"cpu/transform.zero_words.p50",
		"perf.latency_ns.p99",
	} {
		if _, ok := tb.Find(name); !ok {
			t.Fatalf("smoke table missing %q:\n%s", name, tb)
		}
	}
}
