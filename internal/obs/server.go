package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"

	"zerorefresh/internal/core"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

// Plane is one assembled introspection plane: the observable state of a
// simulation (metrics registry, progress board, flight recorder, tail
// hub, optional watchdog) plus the HTTP handler that serves it. Wire it
// into a system by passing Plane.TraceSink as core.Config.TraceSink and
// the plane's Progress as core.Config.Progress, then mount Handler on a
// server — `zrsim -serve ADDR` does exactly this.
//
// Every read endpoint renders from snapshots, so serving never blocks
// the simulation; every body except the streaming tail is
// byte-deterministic for a given simulation state.
type Plane struct {
	// Registry is the observed metrics registry.
	Registry *metrics.Registry
	// Progress is the lock-free progress board the system publishes into.
	Progress *core.Progress
	// Recorder is the flight recorder fed by the TraceSink tee.
	Recorder *FlightRecorder
	// Tail is the streaming-tail hub fed by the TraceSink tee.
	Tail *Tail

	obsRing  *trace.Shard // alert ring inside the recorder's tracer
	watchdog atomic.Pointer[Watchdog]
	done     atomic.Bool
}

// NewPlane builds a plane over the registry and progress board with
// flight rings holding flightCap events per shard (DefaultFlightCap if
// <= 0).
func NewPlane(reg *metrics.Registry, progress *core.Progress, flightCap int) *Plane {
	p := &Plane{
		Registry: reg,
		Progress: progress,
		Recorder: NewFlightRecorder(flightCap),
		Tail:     NewTail(),
	}
	p.obsRing = p.Recorder.rec.NewShard("obs")
	return p
}

// TraceSink is the core.Config.TraceSink interposer: for each shard the
// system wires ("cpu", "rank0", ...) it returns a tee that forwards to
// the underlying tracer shard (when the run also requested a trace),
// feeds this plane's flight ring and fans out to tail subscribers.
func (p *Plane) TraceSink(label string, inner engine.Tracer) engine.Tracer {
	return &planeSink{
		inner: inner,
		rec:   p.Recorder,
		ring:  p.Recorder.rec.NewShard(label),
		tail:  p.Tail,
	}
}

// InstallWatchdog attaches a watchdog over the plane's registry with the
// given rules and window cadence; alerts emit into the recorder's "obs"
// ring (always recorded, armed or not) and to tail subscribers. Pass the
// returned watchdog's Tick to core.System.SetWatch.
func (p *Plane) InstallWatchdog(rules []Rule, every int64) *Watchdog {
	w := NewWatchdog(p.Registry, rules, every, &alertSink{ring: p.obsRing, rec: p.Recorder, tail: p.Tail})
	p.watchdog.Store(w)
	return w
}

// Watchdog returns the installed watchdog, or nil.
func (p *Plane) Watchdog() *Watchdog { return p.watchdog.Load() }

// MarkDone flips the /healthz and /progress done flag; call it when the
// simulation the plane observes has finished (the serving process may
// keep serving the final state).
func (p *Plane) MarkDone() { p.done.Store(true) }

// Done reports whether MarkDone has been called.
func (p *Plane) Done() bool { return p.done.Load() }

// alertSink routes watchdog alert events onto the plane's timeline: into
// the "obs" flight ring unconditionally (alerts are always worth keeping)
// and out to tail subscribers. It is a trace.Sink, so like every sink it
// keeps the emit discipline (no allocation, no blocking) even though
// alerts are rare. Its one writer is the watchdog, whose mutex serializes
// the ticks that emit.
type alertSink struct {
	ring *trace.Shard
	rec  *FlightRecorder
	tail *Tail
}

func (s *alertSink) Emit(e trace.Event) {
	s.rec.mu.RLock()
	s.ring.Emit(e)
	s.rec.mu.RUnlock()
	s.rec.recorded.Add(1)
	e.Shard = s.ring.ID()
	s.tail.publish(e)
}

// Handler returns the plane's HTTP handler:
//
//	/            endpoint index (text)
//	/metrics     Prometheus text exposition of a live registry snapshot
//	/metrics.json  the same snapshot as deterministic JSON
//	/healthz     {"ok":true,"done":...}
//	/progress    lock-free progress board as JSON
//	/flight      Chrome trace-event dump of the flight rings
//	/flight/status, /flight/arm, /flight/disarm  recorder control
//	/alerts      watchdog rules and retained alerts as JSON
//	/trace/tail  NDJSON event stream (params: kind, max, buf)
//	/debug/pprof/*, /debug/vars  the stdlib profiling surfaces
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", p.handleIndex)
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/metrics.json", p.handleMetricsJSON)
	mux.HandleFunc("/healthz", p.handleHealthz)
	mux.HandleFunc("/progress", p.handleProgress)
	mux.HandleFunc("/flight", p.handleFlight)
	mux.HandleFunc("/flight/status", p.handleFlightStatus)
	mux.HandleFunc("/flight/arm", p.handleFlightArm)
	mux.HandleFunc("/flight/disarm", p.handleFlightDisarm)
	mux.HandleFunc("/alerts", p.handleAlerts)
	mux.HandleFunc("/trace/tail", p.handleTail)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

func (p *Plane) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `zerorefresh introspection plane
/metrics        Prometheus text exposition
/metrics.json   metrics snapshot as JSON
/healthz        liveness + done flag
/progress       sim-time/window/event progress board
/flight         flight-recorder dump (Chrome trace JSON)
/flight/status  recorder state
/flight/arm     arm the recorder
/flight/disarm  disarm the recorder
/alerts         watchdog rules and alerts
/trace/tail     NDJSON event stream (params: kind, max, buf)
/debug/pprof/   pprof profiles
/debug/vars     expvar
`)
}

func (p *Plane) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = WritePrometheus(w, p.Registry.Snapshot())
}

func (p *Plane) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = WriteMetricsJSON(w, p.Registry.Snapshot())
}

func (p *Plane) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ok\":true,\"done\":%t}\n", p.done.Load())
}

func (p *Plane) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"sim_time_ns\":%d,\"windows\":%d,\"replayed\":%d,\"events\":%d,\"systems\":%d,\"done\":%t}\n",
		int64(p.Progress.SimTime()), p.Progress.Windows(), p.Progress.Replayed(),
		p.Progress.Events(), p.Progress.Systems(), p.done.Load())
}

func (p *Plane) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = p.Recorder.WriteChrome(w)
}

func (p *Plane) writeFlightStatus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"armed\":%t,\"trips\":%d,\"recorded\":%d,\"dropped\":%d,\"tail_subscribers\":%d,\"tail_dropped\":%d}\n",
		p.Recorder.Armed(), p.Recorder.Trips(), p.Recorder.Recorded(), p.Recorder.Dropped(),
		p.Tail.Subscribers(), p.Tail.Dropped())
}

func (p *Plane) handleFlightStatus(w http.ResponseWriter, r *http.Request) {
	p.writeFlightStatus(w)
}

func (p *Plane) handleFlightArm(w http.ResponseWriter, r *http.Request) {
	p.Recorder.Arm()
	p.writeFlightStatus(w)
}

func (p *Plane) handleFlightDisarm(w http.ResponseWriter, r *http.Request) {
	p.Recorder.Disarm()
	p.writeFlightStatus(w)
}

func (p *Plane) handleAlerts(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	wd := p.watchdog.Load()
	if wd == nil {
		fmt.Fprint(w, "{\"rules\":[],\"alerts\":[]}\n")
		return
	}
	rules, fired, firing, alerts := wd.Rules(), wd.Fired(), wd.Firing(), wd.Alerts()
	fmt.Fprint(w, "{\"rules\":[")
	for i, rl := range rules {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "{\"rule\":%s,\"fired\":%d,\"firing\":%t}", trace.JSONString(rl.String()), fired[i], firing[i])
	}
	fmt.Fprint(w, "],\"alerts\":[")
	for i, a := range alerts {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		fmt.Fprintf(w, "{\"rule\":%s,\"window\":%d,\"time_ns\":%d,\"value\":%s,\"threshold\":%s}",
			trace.JSONString(a.Rule), a.Window, int64(a.Time), trace.JSONFloat(a.Value), trace.JSONFloat(a.Threshold))
	}
	fmt.Fprint(w, "]}\n")
}

// handleTail streams live events as NDJSON until the client disconnects
// (or after `max` events when the max parameter is set). Each line is
// trace.AppendNDJSON's encoding — the one shared with zrsim's .ndjson
// trace export — so a captured tail is byte-compatible with an exported
// trace file and the offline reader (internal/attr) parses both. The
// subscription is drop-and-count: a client that reads slower than the
// simulation emits loses events rather than slowing the simulation, and
// the final flight/status dropped counters say how many. Parameters: kind
// filters by event kind name ("refresh.skipped"), max closes the stream
// after N matching events, buf sizes the subscriber channel.
func (p *Plane) handleTail(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	kindFilter := q.Get("kind")
	maxEvents, _ := strconv.ParseInt(q.Get("max"), 10, 64)
	buf, _ := strconv.Atoi(q.Get("buf"))

	sub := p.Tail.Subscribe(buf)
	defer p.Tail.Unsubscribe(sub)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush()
	}

	var sent int64
	var line []byte
	for {
		select {
		case <-r.Context().Done():
			return
		case e := <-sub.C:
			if kindFilter != "" && e.Kind.String() != kindFilter {
				continue
			}
			line = append(trace.AppendNDJSON(line[:0], e), '\n')
			if _, err := w.Write(line); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			sent++
			if maxEvents > 0 && sent >= maxEvents {
				return
			}
		}
	}
}
