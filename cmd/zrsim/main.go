// Command zrsim reproduces the evaluation of "Charge-Aware DRAM Refresh
// Reduction with Value Transformation" (HPCA 2020). Each experiment id is
// an entry of the sim package's catalogue and regenerates one table or
// figure of the paper, an extension or the ablations:
//
//	zrsim -exp fig14                # normalized refresh, 4 scenarios
//	zrsim -exp fig17 -capacity 8    # IPC study on an 8 MB scaled rank
//	zrsim -exp longhorizon          # 8192 windows on the event-driven core
//	zrsim -exp ablation             # the design choices, one at a time
//	zrsim -exp all                  # everything (results_full.txt)
//
// Capacities are in MB of simulated rank standing in for GB of the paper's
// machine (1/1024 scale); all reported metrics are ratios, so the scale
// cancels out. The figure experiments write in every measured window and
// step windows one at a time; longhorizon schedules sparse write bursts on
// the event queue and fast-forwards the idle windows between them in bulk.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"

	"zerorefresh/internal/core"
	zrmetrics "zerorefresh/internal/metrics"
	"zerorefresh/internal/obs"
	"zerorefresh/internal/sim"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/workload"
)

func main() {
	var (
		exp      = flag.String("exp", "fig14", "experiment: "+experimentIDs()+",all")
		capacity = flag.Int64("capacity", 32, "simulated rank capacity in MB")
		windows  = flag.Int("windows", 8, "measured retention windows")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 23)")
		list     = flag.Bool("list", false, "list benchmarks and exit")
		format   = flag.String("format", "table", "output format: table, csv or json")
		traceTo  = flag.String("trace", "", "write the run's event trace to this file: NDJSON for a .ndjson path (the /trace/tail line format, zrquery-ready), Chrome trace-event JSON otherwise")
		traceCap = flag.Int("trace-cap", 0, "per-shard trace ring capacity in events (default trace.DefaultShardCap; raise it when -trace exports of long runs report drops)")
		metTo    = flag.String("metrics-out", "", "write the per-window metrics time-series to this file (.json for JSON, CSV otherwise)")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
		rtDump   = flag.Bool("runtime-metrics", false, "dump Go runtime metrics to stderr after the run")

		serveAddr  = flag.String("serve", "", "serve the live introspection plane on this address (/metrics, /metrics.json, /healthz, /progress, /flight, /alerts, /trace/tail, /debug/pprof, /debug/vars); keeps serving the final state after the run until interrupted")
		watchRules = flag.String("watch", "", "comma-separated watchdog rules, each name:metric[/denom][~q](>|<)threshold, evaluated over per-window metric deltas (needs -serve or -flight-out)")
		watchEvery = flag.Int64("watch-every", 1, "evaluate -watch rules every N retention windows")
		flightOut  = flag.String("flight-out", "", "write the flight-recorder dump (Chrome trace JSON) to this file after the run if anything was recorded")
	)
	flag.Parse()

	if *list {
		for _, b := range workload.Benchmarks() {
			fmt.Printf("%-12s %-8s reduction~%.2f MPKI=%.1f\n", b.Name, b.Suite, b.ExpectedReduction(), b.MPKI)
		}
		return
	}

	if *pprofOn != "" {
		go func() {
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				fmt.Fprintln(os.Stderr, "zrsim: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "zrsim: pprof serving on http://%s/debug/pprof/\n", *pprofOn)
	}

	o := sim.Options{
		Capacity: *capacity << 20,
		Windows:  *windows,
		Seed:     *seed,
	}
	if *traceTo != "" {
		o.Trace = trace.New(*traceCap)
	}
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			p, ok := workload.ByName(strings.TrimSpace(name))
			if !ok {
				fail(fmt.Errorf("unknown benchmark %q (try -list)", name))
			}
			o.Benchmarks = append(o.Benchmarks, p)
		}
	}

	// Assemble the introspection plane when anything observes the run: the
	// HTTP surface (-serve), the post-run flight dump (-flight-out), or
	// watchdog rules (-watch). One plane observes every system the
	// experiments build; each system's registry mounts under "sysN/".
	var plane *obs.Plane
	if *serveAddr != "" || *flightOut != "" || *watchRules != "" {
		plane = obs.NewPlane(zrmetrics.NewRegistry(), &core.Progress{}, 0)
		if *watchRules != "" {
			var rules []obs.Rule
			for _, s := range strings.Split(*watchRules, ",") {
				r, err := obs.ParseRule(strings.TrimSpace(s))
				if err != nil {
					fail(err)
				}
				rules = append(rules, r)
			}
			plane.InstallWatchdog(rules, *watchEvery)
		}
		o.Observer = observer(plane)
		if *serveAddr != "" {
			ln, err := net.Listen("tcp", *serveAddr)
			if err != nil {
				fail(err)
			}
			srv := &http.Server{Handler: plane.Handler()}
			go func() {
				if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
					fmt.Fprintln(os.Stderr, "zrsim: serve:", err)
				}
			}()
			fmt.Fprintf(os.Stderr, "zrsim: introspection plane on http://%s/\n", ln.Addr())
		}
	}

	csvOut = *format == "csv"
	jsonOut = *format == "json"
	metricsOut = *metTo
	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range sim.Experiments() {
			if !e.Demo {
				ids = append(ids, e.ID)
			}
		}
	}
	for _, id := range ids {
		fmt.Fprintf(os.Stderr, "zrsim: running %s...\n", id)
		if err := run(id, o); err != nil {
			fail(err)
		}
	}
	if *traceTo != "" {
		if err := writeTrace(*traceTo, o.Trace); err != nil {
			fail(err)
		}
	}
	if *rtDump {
		dumpRuntimeMetrics(os.Stderr)
	}
	if plane != nil {
		plane.MarkDone()
		if *flightOut != "" {
			if err := writeFlight(*flightOut, plane); err != nil {
				fail(err)
			}
		}
	}
	if *serveAddr != "" {
		fmt.Fprintln(os.Stderr, "zrsim: run complete; serving final state until interrupted")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// observer wires plane into every system a run builds: each system's
// registry mounts under "sysN/" of the plane's registry, N counting the
// systems in the order they are built, and the plane's watchdog, when one
// is installed, ticks after every retention window. Experiments build
// systems from parallel units, so the count and the mount are taken under
// a lock.
func observer(plane *obs.Plane) *sim.Observer {
	var (
		mu sync.Mutex
		n  int
	)
	return &sim.Observer{
		TraceSink: plane.TraceSink,
		Progress:  plane.Progress,
		OnSystem: func(sys *core.System) {
			mu.Lock()
			plane.Registry.Attach(fmt.Sprintf("sys%d", n), sys.Metrics())
			n++
			mu.Unlock()
			if wd := plane.Watchdog(); wd != nil {
				sys.SetWatch(wd.Tick)
			}
		},
	}
}

// writeFlight dumps the flight recorder to path when it holds anything
// (it records while armed — explicitly, or auto-armed by the first
// retention-violation event that passed the tee).
func writeFlight(path string, plane *obs.Plane) error {
	rec := plane.Recorder
	if rec.Recorded() == 0 {
		fmt.Fprintln(os.Stderr, "zrsim: flight recorder empty (never armed); no dump written")
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := rec.WriteChrome(f)
	cerr := f.Close()
	fmt.Fprintf(os.Stderr, "zrsim: flight dump: %d events recorded, %d trips -> %s\n",
		rec.Recorded(), rec.Trips(), path)
	if werr != nil {
		return werr
	}
	return cerr
}

var (
	csvOut  bool
	jsonOut bool
	// metricsOut is the -metrics-out path; the smoke/timeline experiments
	// write their epoch time-series there.
	metricsOut string
)

func emit(t *sim.Table) {
	switch {
	case jsonOut:
		fmt.Print(t.JSON())
	case csvOut:
		fmt.Print(t.CSV())
	default:
		fmt.Println(t)
	}
}

// run runs the catalogue entry id and prints its table; smoke and timeline
// also write their epochs to the -metrics-out path.
func run(id string, o sim.Options) error {
	e, ok := sim.ExperimentByID(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q", id)
	}
	t, epochs, err := e.Run(o)
	if err != nil {
		return err
	}
	emit(t)
	if epochs != nil {
		return writeTimeline(metricsOut, epochs)
	}
	return nil
}

// experimentIDs lists the catalogue's ids for the -exp help.
func experimentIDs() string {
	var ids []string
	for _, e := range sim.Experiments() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ",")
}

// writeTimeline writes the epoch time-series of a smoke/timeline run to
// path (no-op when -metrics-out was not given). A .json suffix selects the
// JSON exporter; anything else gets CSV.
func writeTimeline(path string, epochs []core.Epoch) error {
	if path == "" {
		return nil
	}
	out := sim.TimelineCSV(epochs)
	if strings.HasSuffix(path, ".json") {
		out = sim.TimelineJSON(epochs)
	}
	return os.WriteFile(path, []byte(out), 0o644)
}

// writeTrace exports the run's event trace: NDJSON (the exact line
// format /trace/tail streams, which zrquery diffs without re-encoding)
// when the path ends in .ndjson, Chrome trace-event JSON otherwise.
func writeTrace(path string, tr *trace.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var werr error
	if strings.HasSuffix(path, ".ndjson") {
		werr = trace.WriteNDJSON(f, tr)
	} else {
		werr = trace.WriteChrome(f, tr)
	}
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// dumpRuntimeMetrics prints every Go runtime metric the toolchain exposes,
// one per line, for quick host-side profiling of large runs.
func dumpRuntimeMetrics(w *os.File) {
	descs := metrics.All()
	samples := make([]metrics.Sample, len(descs))
	for i, d := range descs {
		samples[i].Name = d.Name
	}
	metrics.Read(samples)
	for _, s := range samples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			fmt.Fprintf(w, "%-60s %d\n", s.Name, s.Value.Uint64())
		case metrics.KindFloat64:
			fmt.Fprintf(w, "%-60s %g\n", s.Name, s.Value.Float64())
		case metrics.KindFloat64Histogram:
			h := s.Value.Float64Histogram()
			var n uint64
			for _, c := range h.Counts {
				n += c
			}
			fmt.Fprintf(w, "%-60s histogram, %d samples\n", s.Name, n)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "zrsim:", err)
	os.Exit(1)
}
