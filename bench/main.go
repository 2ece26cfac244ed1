// Command bench is the end-to-end benchmark of the simulator: it times
// whole paper experiments (sim.RunFig14, sim.RunLongHorizon, sim.RunFig17,
// sim.RunScenario with tracing on) as users run them, checks every output
// against committed goldens, and, in its traced mode, breaks one
// repetition down by layer.
//
//	go run . -workload fig14 -seed 1 -seconds 30 -trace 0   # end-to-end metrics
//	go run . -workload fig14 -trace 1                        # per-layer ledger
//	go run . -sets 5                                          # two-set self-check
//	go run . -update                                          # regenerate goldens
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// procs is the parallelism of every run: the experiments fan out over
// GOMAXPROCS workers.
const procs = 2

// flags are the command line.
type flags struct {
	workload, out, spec, testdata string
	seed                          uint64
	seconds, trace, sets          int
	update                        bool
}

func main() {
	runtime.GOMAXPROCS(procs)
	var f flags
	flag.StringVar(&f.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&f.seed, "seed", 1, "workload seed (0 is the same as 1, as in sim.Options)")
	flag.IntVar(&f.seconds, "seconds", 30, "measure for this many seconds (at least "+fmt.Sprint(minReps)+" repetitions)")
	flag.IntVar(&f.trace, "trace", 0, "1 runs the traced per-layer ledger instead of the timed run")
	flag.StringVar(&f.out, "out", ".bench_build", "directory for the traced run's CPU profile")
	flag.IntVar(&f.sets, "sets", 0, "self-check: run every workload (or -workload) in two alternating sets of this many runs")
	flag.StringVar(&f.spec, "spec", "BENCHMARK.json", "benchmark declaration the self-check reads run_seconds and bounds from")
	flag.BoolVar(&f.update, "update", false, "regenerate the goldens of every workload (or -workload) at seeds 1-3")
	flag.StringVar(&f.testdata, "testdata", "bench/testdata", "directory -update writes goldens to")
	flag.Parse()
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(f flags) error {
	ws, err := selectWorkloads(f.workload, f.sets > 0 || f.update)
	if err != nil {
		return err
	}
	switch {
	case f.update:
		return updateGoldens(ws, f.testdata)
	case f.sets > 0:
		return runSets(ws, f.sets, f.spec, f.out)
	}
	if f.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	seed := f.seed
	if seed == 0 {
		seed = 1
	}
	w := ws[0]
	o := w.options(seed)
	budget := time.Duration(f.seconds) * time.Second
	var (
		r    *report
		defs []metricDef
	)
	switch f.trace {
	case 0:
		r, defs = timedRun(w, o, golden(w.name, seed), budget), endToEnd
	case 1:
		r, err = tracedRun(w, o, golden(w.name, seed), budget, f.out)
		if err != nil {
			return err
		}
		defs = perLayer
	default:
		return fmt.Errorf("-trace must be 0 or 1, not %d", f.trace)
	}
	writeTable(os.Stdout, r, defs)
	line, err := json.Marshal(r.result(defs))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// selectWorkloads resolves -workload; an empty name means every workload
// where the mode allows it.
func selectWorkloads(name string, allowAll bool) ([]*workloadSpec, error) {
	if name == "" {
		if !allowAll {
			return nil, errors.New("-workload is required")
		}
		ws := make([]*workloadSpec, len(workloads))
		for i := range workloads {
			ws[i] = &workloads[i]
		}
		return ws, nil
	}
	w, ok := workloadByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	return []*workloadSpec{w}, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result(defs []metricDef) result {
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: r.values[d.name], Unit: d.unit}
	}
	return res
}
