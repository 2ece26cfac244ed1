// Command zrquery is the offline trace-analytics tool over the
// simulator's deterministic event streams: trace files from `zrsim
// -trace` (Chrome JSON or .ndjson), flight-recorder dumps, and captured
// /trace/tail NDJSON all load through the same reader.
//
//	zrquery report TRACE [-chrome spans.json]   derived window/burst timeline
//	zrquery diff A B [-context N]               first-divergence lockstep diff
//	zrquery flame TRACE [energy flags]          folded "refresh cost by cause" stacks
//	zrquery energy TRACE [energy flags]         per-bank attribution + energy breakdown
//
// Exit codes: 0 success (diff: no divergence), 1 divergence or failed
// reconciliation, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"zerorefresh/internal/attr"
	"zerorefresh/internal/energy"
	"zerorefresh/internal/metrics"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: zrquery <command> [flags] <trace...>

commands:
  report TRACE [-chrome OUT]    derive the window/burst timeline (OUT gets Chrome span JSON)
  diff A B [-context N]         pinpoint the first divergent event of two traces
  flame TRACE [energy flags]    folded flame-graph stacks of energy by cause
  energy TRACE [energy flags] [-metrics FILE]
                                per-bank attribution and energy breakdown,
                                reconciled against a metrics.json snapshot

energy flags (shared by flame and energy):
  -gbit N         device density in Gbit for the Table II tRFC (default 32)
  -devices N      devices per rank (default 1)
  -rows-per-ar N  refresh steps covered by one AR command (default 32)
  -read-duty F    read-burst duty cycle (default 0.08)
  -write-duty F   write-burst duty cycle (default 0.02)
  -line-nj F      writeback energy per cacheline in nJ (default 0)
`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch args[0] {
	case "report":
		return runReport(args[1:], stdout, stderr)
	case "diff":
		return runDiff(args[1:], stdout, stderr)
	case "flame", "energy":
		return runEnergy(args[0], args[1:], stdout, stderr)
	case "help", "-h", "--help":
		fmt.Fprint(stdout, usage)
		return 0
	}
	fmt.Fprintf(stderr, "zrquery: unknown command %q\n%s", args[0], usage)
	return 2
}

// fail prints an error in the tool's one format and returns the I/O exit
// code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "zrquery: %v\n", err)
	return 2
}

func runReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	chromeOut := fs.String("chrome", "", "also write the derived spans as Chrome trace JSON to this file")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "zrquery report: want exactly one trace file")
		return 2
	}
	s, err := attr.Open(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	tl := attr.Derive(s)
	fmt.Fprint(stdout, tl.Report())
	if *chromeOut != "" {
		var b strings.Builder
		tl.WriteChromeSpans(&b)
		if err := os.WriteFile(*chromeOut, []byte(b.String()), 0o644); err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	context := fs.Int("context", 3, "surrounding events to show on each side of the divergence")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "zrquery diff: want exactly two trace files")
		return 2
	}
	pathA, pathB := fs.Arg(0), fs.Arg(1)
	sa, err := attr.Open(pathA)
	if err != nil {
		return fail(stderr, err)
	}
	sb, err := attr.Open(pathB)
	if err != nil {
		return fail(stderr, err)
	}
	d := attr.Diff(sa.Events, sb.Events, *context)
	fmt.Fprint(stdout, d.Report(pathA, pathB))
	if d != nil {
		return 1
	}
	return 0
}

// costFlags registers the shared energy-model flags and returns a closure
// building attr.Costs from energy.TableII once parsed.
func costFlags(fs *flag.FlagSet) func() attr.Costs {
	gbit := fs.Int("gbit", 32, "device density in Gbit (selects the Table II tRFC)")
	devices := fs.Int("devices", 1, "devices per rank")
	rowsPerAR := fs.Int("rows-per-ar", 32, "refresh steps covered by one AR command")
	readDuty := fs.Float64("read-duty", 0.08, "read-burst duty cycle")
	writeDuty := fs.Float64("write-duty", 0.02, "write-burst duty cycle")
	lineNJ := fs.Float64("line-nj", 0, "writeback energy per cacheline, nJ")
	return func() attr.Costs {
		p := energy.TableII()
		tRFC := energy.DensityTRFC(*gbit)
		ar := *rowsPerAR
		if ar < 1 {
			ar = 1
		}
		return attr.Costs{
			StepJ:       p.RefreshEnergyPerARJ(tRFC, *devices) / float64(ar),
			LineJ:       *lineNJ * 1e-9,
			BackgroundW: p.BackgroundPowerW(*devices),
			BusW:        p.ReadPowerW(*readDuty, *devices) + p.WritePowerW(*writeDuty, *devices),
		}
	}
}

func runEnergy(cmd string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	costs := costFlags(fs)
	metricsPath := fs.String("metrics", "", "reconcile against this metrics.json snapshot (energy only)")
	if fs.Parse(args) != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintf(stderr, "zrquery %s: want exactly one trace file\n", cmd)
		return 2
	}
	s, err := attr.Open(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	a := attr.Attribute(s)
	c := costs()
	if cmd == "flame" {
		fmt.Fprint(stdout, a.Flame(c))
		return 0
	}
	fmt.Fprint(stdout, a.Report(c))
	if *metricsPath != "" {
		snap, err := readMetricsJSON(*metricsPath)
		if err != nil {
			return fail(stderr, err)
		}
		bad := a.Reconcile(snap)
		if len(bad) == 0 {
			fmt.Fprintln(stdout, "reconciliation: trace counts match the metrics registry")
			return 0
		}
		fmt.Fprintln(stdout, "reconciliation FAILED:")
		for _, m := range bad {
			fmt.Fprintf(stdout, "  %s\n", m)
		}
		return 1
	}
	return 0
}

// readMetricsJSON loads an obs metrics.json exposition (or /metrics.json
// capture) back into a snapshot; only counters matter to reconciliation.
func readMetricsJSON(path string) (metrics.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return metrics.Snapshot{}, err
	}
	var doc struct {
		Samples []struct {
			Name  string          `json:"name"`
			Kind  string          `json:"kind"`
			Value json.RawMessage `json:"value"`
		} `json:"samples"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return metrics.Snapshot{}, fmt.Errorf("%s: %v", path, err)
	}
	var snap metrics.Snapshot
	for _, s := range doc.Samples {
		if s.Kind != "counter" {
			continue
		}
		var v int64
		if err := json.Unmarshal(s.Value, &v); err != nil {
			return metrics.Snapshot{}, fmt.Errorf("%s: counter %s: %v", path, s.Name, err)
		}
		snap.Samples = append(snap.Samples, metrics.Sample{Name: s.Name, Kind: metrics.KindCounter, Int: v})
	}
	return snap, nil
}
