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
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime/metrics"
	"slices"
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

// cliArgs is what zrsim's command line asks for: the options of the run
// and the process-level settings around it. parseArgs builds it without
// starting anything.
type cliArgs struct {
	opts       sim.Options
	ids        []string // the experiments to run, in order
	list       bool
	format     string
	traceTo    string
	metricsTo  string
	pprofOn    string
	rtDump     bool
	serveAddr  string
	rules      []obs.Rule
	watchEvery int64
	flightOut  string
}

// formats are the -format values.
var formats = []string{"table", "csv", "json"}

// usageError is a command line the flag package rejected; it has already
// printed the message and the usage.
type usageError struct{ error }

// parseArgs turns zrsim's arguments (without the program name) into the
// run's options and settings, or an error naming the bad flag. It starts
// nothing: no run, no listener, no file. Usage and flag-syntax errors go
// to stderr and come back as a usageError.
func parseArgs(args []string, stderr io.Writer) (cliArgs, error) {
	fs := flag.NewFlagSet("zrsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		a        cliArgs
		exp      = fs.String("exp", "fig14", "experiment: "+experimentIDs()+",all")
		capacity = fs.Int64("capacity", 32, "simulated rank capacity in MB")
		windows  = fs.Int("windows", 8, "measured retention windows")
		seed     = fs.Uint64("seed", 1, "simulation seed")
		benches  = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all 23)")
		traceCap = fs.Int("trace-cap", 0, "per-shard trace ring capacity in events (default trace.DefaultShardCap; raise it when -trace exports of long runs report drops)")
		watch    = fs.String("watch", "", "comma-separated watchdog rules, each name:metric[/denom][~q](>|<)threshold, evaluated over per-window metric deltas (needs -serve or -flight-out)")
	)
	fs.BoolVar(&a.list, "list", false, "list benchmarks and exit")
	fs.StringVar(&a.format, "format", "table", "output format: "+strings.Join(formats, ", "))
	fs.StringVar(&a.traceTo, "trace", "", "write the run's event trace to this file: NDJSON for a .ndjson path (the /trace/tail line format, zrquery-ready), Chrome trace-event JSON otherwise")
	fs.StringVar(&a.metricsTo, "metrics-out", "", "write the per-window metrics time-series to this file (.json for JSON, CSV otherwise)")
	fs.StringVar(&a.pprofOn, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
	fs.BoolVar(&a.rtDump, "runtime-metrics", false, "dump Go runtime metrics to stderr after the run")
	fs.StringVar(&a.serveAddr, "serve", "", "serve the live introspection plane on this address (/metrics, /metrics.json, /healthz, /progress, /flight, /alerts, /trace/tail, /debug/pprof, /debug/vars); keeps serving the final state after the run until interrupted")
	fs.Int64Var(&a.watchEvery, "watch-every", 1, "evaluate -watch rules every N retention windows")
	fs.StringVar(&a.flightOut, "flight-out", "", "write the flight-recorder dump (Chrome trace JSON) to this file after the run if anything was recorded")
	if err := fs.Parse(args); err != nil {
		return cliArgs{}, usageError{err}
	}
	if fs.NArg() > 0 {
		return cliArgs{}, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if err := checkScale(*capacity, *windows); err != nil {
		return cliArgs{}, err
	}
	if !slices.Contains(formats, a.format) {
		return cliArgs{}, fmt.Errorf("unknown -format %q (want %s)", a.format, strings.Join(formats, ", "))
	}
	a.ids = []string{*exp}
	if *exp == "all" {
		a.ids = a.ids[:0]
		for _, e := range sim.Experiments() {
			if !e.Demo {
				a.ids = append(a.ids, e.ID)
			}
		}
	} else if _, ok := sim.ExperimentByID(*exp); !ok {
		return cliArgs{}, fmt.Errorf("unknown experiment %q", *exp)
	}
	a.opts = sim.Options{
		Capacity: *capacity << 20,
		Windows:  *windows,
		Seed:     *seed,
	}
	if a.traceTo != "" {
		a.opts.Trace = trace.New(*traceCap)
	}
	if *benches != "" {
		for _, name := range strings.Split(*benches, ",") {
			name = strings.TrimSpace(name)
			p, ok := workload.ByName(name)
			if !ok {
				return cliArgs{}, fmt.Errorf("unknown benchmark %q (try -list)", name)
			}
			if slices.ContainsFunc(a.opts.Benchmarks, func(q workload.Profile) bool { return q.Name == name }) {
				return cliArgs{}, fmt.Errorf("benchmark %q named twice in -benchmarks", name)
			}
			a.opts.Benchmarks = append(a.opts.Benchmarks, p)
		}
	}
	if *watch != "" {
		for _, s := range strings.Split(*watch, ",") {
			r, err := obs.ParseRule(strings.TrimSpace(s))
			if err != nil {
				return cliArgs{}, err
			}
			a.rules = append(a.rules, r)
		}
	}
	return a, nil
}

func main() {
	a, err := parseArgs(os.Args[1:], os.Stderr)
	if ue := (usageError{}); errors.As(err, &ue) {
		if errors.Is(ue.error, flag.ErrHelp) {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if err != nil {
		fail(err)
	}
	o := a.opts

	if a.list {
		for _, b := range workload.Benchmarks() {
			fmt.Printf("%-12s %-8s reduction~%.2f MPKI=%.1f\n", b.Name, b.Suite, b.ExpectedReduction(), b.MPKI)
		}
		return
	}

	if a.pprofOn != "" {
		go func() {
			if err := http.ListenAndServe(a.pprofOn, nil); err != nil {
				fmt.Fprintln(os.Stderr, "zrsim: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "zrsim: pprof serving on http://%s/debug/pprof/\n", a.pprofOn)
	}

	// Assemble the introspection plane when anything observes the run: the
	// HTTP surface (-serve), the post-run flight dump (-flight-out), or
	// watchdog rules (-watch). One plane observes every system the
	// experiments build; each system's registry mounts under "sysN/".
	var plane *obs.Plane
	if a.serveAddr != "" || a.flightOut != "" || a.rules != nil {
		plane = obs.NewPlane(zrmetrics.NewRegistry(), &core.Progress{}, 0)
		if a.rules != nil {
			plane.InstallWatchdog(a.rules, a.watchEvery)
		}
		o.Observer = observer(plane)
		if a.serveAddr != "" {
			ln, err := net.Listen("tcp", a.serveAddr)
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

	csvOut = a.format == "csv"
	jsonOut = a.format == "json"
	metricsOut = a.metricsTo
	for _, id := range a.ids {
		fmt.Fprintf(os.Stderr, "zrsim: running %s...\n", id)
		if err := run(id, o); err != nil {
			fail(err)
		}
	}
	if a.traceTo != "" {
		if err := writeTrace(a.traceTo, o.Trace); err != nil {
			fail(err)
		}
	}
	if a.rtDump {
		dumpRuntimeMetrics(os.Stderr)
	}
	if plane != nil {
		plane.MarkDone()
		if a.flightOut != "" {
			if err := writeFlight(a.flightOut, plane); err != nil {
				fail(err)
			}
		}
	}
	if a.serveAddr != "" {
		fmt.Fprintln(os.Stderr, "zrsim: run complete; serving final state until interrupted")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}

// checkScale rejects a -capacity or -windows below 1, and a -capacity
// whose byte count (capacityMB << 20) overflows an int64. The experiments
// would otherwise read 0 as "use the default" and run a negative count as
// no windows at all, printing results they never simulated; an overflowed
// capacity can shift to exactly 0.
func checkScale(capacityMB int64, windows int) error {
	if capacityMB < 1 {
		return fmt.Errorf("-capacity must be at least 1 (MB), got %d", capacityMB)
	}
	if capacityMB > math.MaxInt64>>20 {
		return fmt.Errorf("-capacity must be at most %d (MB), got %d", int64(math.MaxInt64>>20), capacityMB)
	}
	if windows < 1 {
		return fmt.Errorf("-windows must be at least 1, got %d", windows)
	}
	return nil
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
