package obs

import (
	"io"
	"sync"
	"sync/atomic"

	"zerorefresh/internal/engine"
	"zerorefresh/internal/trace"
)

// FlightRecorder is a crash-dump-style recorder over the simulation's
// trace stream: a bounded per-shard ring (its own trace.Tracer, separate
// from any user-requested tracer) that holds the last N events per shard
// while armed and costs nothing while disarmed.
//
// It is disarmed by default. It arms in two ways: explicitly (Arm, the
// /flight/arm endpoint) or automatically when a retention violation event
// passes through the tee — the one event a correct refresh policy never
// emits, so the moments after it are exactly what a post-mortem wants.
// The trip check runs before the ring write, so the violation event
// itself is the first event recorded.
//
// The disarmed emit path is allocation-free and branch-cheap: forward to
// the underlying tracer shard (if any), one kind compare, one atomic
// load, and a tail fan-out over an empty subscriber list. The
// TestFlightRecorderDisarmedNoAllocs test and the zrlint hotpath analyzer
// both pin this.
//
// The rings are the one place a trace.Shard is read while its writer runs,
// so the recorder orders the two with mu: a ring writer holds it shared
// for its Emit (the rings are disjoint, so writers never wait on each
// other), and a dump holds it exclusively only while it copies the rings
// into a fresh tracer, then encodes that copy without it. A slow /flight
// client therefore never stalls the simulation.
type FlightRecorder struct {
	rec      *trace.Tracer
	mu       sync.RWMutex // shared by ring writers, exclusive for a copy
	armed    atomic.Bool
	autoArm  atomic.Bool
	trips    atomic.Int64
	recorded atomic.Int64
}

// DefaultFlightCap is the per-shard flight-ring capacity used when a
// recorder is built with NewFlightRecorder(0).
const DefaultFlightCap = 1 << 12

// NewFlightRecorder returns a disarmed recorder whose rings hold up to
// shardCap events each (DefaultFlightCap if shardCap <= 0). Auto-arming
// on retention violations starts enabled.
func NewFlightRecorder(shardCap int) *FlightRecorder {
	if shardCap <= 0 {
		shardCap = DefaultFlightCap
	}
	r := &FlightRecorder{rec: trace.New(shardCap)}
	r.autoArm.Store(true)
	return r
}

// Arm starts recording.
func (r *FlightRecorder) Arm() { r.armed.Store(true) }

// Disarm stops recording; the rings keep what they hold for dumping.
func (r *FlightRecorder) Disarm() { r.armed.Store(false) }

// Armed reports whether the recorder is currently recording.
func (r *FlightRecorder) Armed() bool { return r.armed.Load() }

// SetAutoArm controls whether a retention-violation event arms the
// recorder automatically (enabled by default).
func (r *FlightRecorder) SetAutoArm(on bool) { r.autoArm.Store(on) }

// Trips returns how many retention-violation events have passed through
// the tee (each one arms the recorder while auto-arm is enabled).
func (r *FlightRecorder) Trips() int64 { return r.trips.Load() }

// Recorded returns the total events written into the rings since
// construction (including events since overwritten).
func (r *FlightRecorder) Recorded() int64 { return r.recorded.Load() }

// Dropped returns how many recorded events the bounded rings overwrote.
func (r *FlightRecorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rec.Dropped()
}

// Events returns the currently held events merged across shards in the
// deterministic (Time, Shard, Seq) order.
func (r *FlightRecorder) Events() []trace.Event { return r.snapshot().Events() }

// WriteChrome dumps the currently held events as Chrome trace-event JSON
// (the same format `zrsim -trace-out` writes), loadable in
// chrome://tracing or Perfetto.
func (r *FlightRecorder) WriteChrome(w io.Writer) error { return trace.WriteChrome(w, r.snapshot()) }

// snapshot returns a fresh tracer holding a copy of every ring: the same
// labels, ids, events and drop counts. It holds mu exclusively only for
// the copy.
func (r *FlightRecorder) snapshot() *trace.Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := trace.New(r.rec.ShardCap())
	for _, s := range r.rec.Shards() {
		if err := snap.NewShard(s.Label()).CopyFrom(s); err != nil {
			panic(err) // both tracers have one capacity
		}
	}
	return snap
}

// trip notes one retention-violation event, arming the recorder when
// auto-arm is enabled. It is on the emit hot path.
//
//zr:hotpath
func (r *FlightRecorder) trip() {
	r.trips.Add(1)
	if r.autoArm.Load() {
		r.armed.Store(true)
	}
}

// planeSink is the tee the introspection plane interposes on every shard
// via core.Config.TraceSink: it forwards to the underlying tracer shard
// (when the run also requested a full trace), feeds the flight recorder's
// bounded ring while armed, and fans out to streaming tail subscribers.
//
// It implements trace.PassiveSink: while no inner tracer is attached, the
// recorder is disarmed and no tail client is connected, the sink is
// discarding everything, and the refresh engines' bulk idle replay stays
// available exactly as if no sink were installed.
type planeSink struct {
	inner engine.Tracer // underlying tracer shard; nil when tracing is off
	rec   *FlightRecorder
	ring  *trace.Shard // this shard's flight ring
	tail  *Tail
}

// Emit tees the event. It is on every layer's emission path, so it obeys
// the same hot-path discipline the tracer shards do: no allocation, no
// fmt, no closures (the zrlint hotpath analyzer checks it as a callee of
// every emitting layer).
//
//zr:hotpath
func (s *planeSink) Emit(e trace.Event) {
	if s.inner != nil {
		s.inner.Emit(e)
	}
	if e.Kind == trace.KindRetentionViolation {
		s.rec.trip()
	}
	if s.rec.armed.Load() {
		s.rec.mu.RLock()
		s.ring.Emit(e)
		s.rec.mu.RUnlock()
		s.rec.recorded.Add(1)
	}
	// Stamp the flight-ring shard id so tail lines identify their shard
	// consistently with the /flight dump (the ring's own copy gets the
	// same id from Shard.Emit).
	e.Shard = s.ring.ID()
	s.tail.publish(e)
}

// Passive reports whether the sink is currently discarding every event.
func (s *planeSink) Passive() bool {
	return s.inner == nil && !s.rec.armed.Load() && !s.tail.active()
}
