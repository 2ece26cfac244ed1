// Package trace is the typed event tracer of the simulator: a lock-light,
// per-shard ring buffer that the hardware layers (dram, refresh, memctrl,
// transform) emit structured events into while a simulation runs, and that
// the exporters drain into Chrome trace-event JSON or reports afterwards.
//
// The package is a leaf: it imports only the standard library, so every
// layer — including internal/dram, which sits below internal/engine — can
// emit through the same Sink interface that engine re-exports as
// engine.Tracer. Emission is nil-safe by convention: every emitting layer
// holds the interface in a field and guards each emission with a single
// `if tr != nil` branch, so the disabled path costs one predictable,
// allocation-free branch (core's TestSteadyStateAllocFree pins this on the
// line-write path).
//
// Determinism: a Shard is only ever written by the goroutine driving its
// rank (or the CPU-side driver), so per-shard event order is the execution
// order of that shard and is reproducible for a fixed seed. Tracer.Events
// merges shards by (Time, Shard, Seq), which is a total, scheduling-
// independent order — the golden trace test pins the exported bytes.
package trace

import (
	"fmt"
	"sort"
	"sync"
)

// Kind is the event taxonomy. Every event a layer can emit has a typed
// kind; exporters render the kind name, so adding a kind here is the whole
// registration step.
type Kind uint8

const (
	// KindRefreshIssued marks one refresh step (a rank-level diagonal
	// group) actually refreshed by an AR command. A counts the chip-rows
	// refreshed, B the discharged-run length the refresh terminated.
	KindRefreshIssued Kind = iota
	// KindRefreshSkipped marks one refresh step skipped because every
	// chip-row of the step was discharged. A is the current consecutive
	// skip-run length of the step.
	KindRefreshSkipped
	// KindChargeTransition marks a chip-row crossing between the charged
	// and fully discharged states on the store path. A is 1 when the row
	// became discharged, 0 when it became charged.
	KindChargeTransition
	// KindWindowRollover marks the end of one retention window on a
	// rank. A is the steps refreshed, B the steps skipped in the window.
	KindWindowRollover
	// KindCodecSelect marks one cacheline encode on the CPU-side
	// pipeline. A is the stage mask (CodecEBDI|CodecBitPlane|
	// CodecInverted), B the number of all-zero words in the encoded
	// line (the codec's win for this line). CPU-side events carry no
	// DRAM timestamp (Time 0); they order by sequence.
	KindCodecSelect
	// KindWriteback marks one cacheline written through the controller
	// datapath (an LLC writeback). A is the word slot within the row.
	KindWriteback
	// KindRetentionViolation marks a chip-row that lost charged data
	// because its retention deadline passed before the next recharge.
	// A correct refresh policy never emits it.
	KindRetentionViolation
	// KindAlert marks a watchdog rule firing (internal/obs). A is the
	// rule index in the watchdog's rule list, B the observed value in
	// milli-units (value * 1000, rounded), so threshold crossings are
	// visible on the trace timeline next to the activity that caused
	// them.
	KindAlert

	numKinds
)

// Codec stage-mask bits for KindCodecSelect's A argument.
const (
	CodecEBDI     = 1 << 0
	CodecBitPlane = 1 << 1
	CodecInverted = 1 << 2
)

var kindNames = [numKinds]string{
	KindRefreshIssued:      "refresh.issued",
	KindRefreshSkipped:     "refresh.skipped",
	KindChargeTransition:   "dram.charge_transition",
	KindWindowRollover:     "refresh.window_rollover",
	KindCodecSelect:        "transform.codec_select",
	KindWriteback:          "ctrl.writeback",
	KindRetentionViolation: "dram.retention_violation",
	KindAlert:              "obs.alert",
}

// String returns the stable exporter name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one typed simulation event. It is a plain value — no pointers —
// so emitting one never allocates and a ring slot fully owns its data.
type Event struct {
	// Kind is the event type.
	Kind Kind
	// Shard identifies the emitting shard; stamped by Shard.Emit.
	Shard int32
	// Time is the simulation timestamp in nanoseconds (dram.Time's
	// unit). CPU-side events that have no DRAM timestamp carry zero.
	Time int64
	// Chip, Bank and Row locate the event in the rank geometry; -1 where
	// a coordinate does not apply.
	Chip, Bank, Row int32
	// A and B are kind-specific arguments (see the Kind constants).
	A, B int64
	// Seq is the per-shard emission sequence number; stamped by
	// Shard.Emit. Together with Shard it totally orders simultaneous
	// events.
	Seq uint64
}

// Sink receives emitted events. *Shard is the canonical implementation;
// engine.Tracer aliases this interface so the layers above internal/dram
// can name it without importing this package directly.
type Sink interface {
	Emit(Event)
}

// PassiveSink is an optional Sink extension for interposing sinks (the
// introspection plane's flight-recorder/tail tee) that may currently be
// discarding every event: Passive reports that nothing downstream is
// recording or listening right now. The refresh engine consults it when
// deciding whether idle windows may be bulk-replayed — a replay emits no
// per-step events, which is only observationally safe when nobody is
// observing. A sink that does not implement PassiveSink is always treated
// as active; *Shard deliberately does not implement it (its ring is
// always recording).
type PassiveSink interface {
	Passive() bool
}

// Shard is one single-writer ring buffer. When full it overwrites the
// oldest event, so a long run keeps the most recent window of activity;
// Dropped reports how many events were overwritten.
type Shard struct {
	id    int32
	label string

	mu   sync.Mutex
	buf  []Event
	next int    // ring write cursor
	n    int    // events currently stored (<= cap)
	seq  uint64 // total events ever emitted
}

// Emit records the event, stamping its shard id and sequence number. It
// never allocates: the ring is preallocated at construction.
//
//zr:hotpath
func (s *Shard) Emit(e Event) {
	s.mu.Lock()
	e.Shard = s.id
	e.Seq = s.seq
	s.seq++
	s.buf[s.next] = e
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
	}
	if s.n < len(s.buf) {
		s.n++
	}
	s.mu.Unlock()
}

// Label returns the shard's label ("cpu", "rank0", ...).
func (s *Shard) Label() string { return s.label }

// ID returns the shard's id (its index among its Tracer's shards) — the
// value Emit stamps into Event.Shard.
func (s *Shard) ID() int32 { return s.id }

// Len returns the number of events currently held.
func (s *Shard) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Dropped returns how many events the ring overwrote.
func (s *Shard) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq - uint64(s.n)
}

// Events returns the held events oldest-first.
func (s *Shard) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, 0, s.n)
	start := s.next - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		out = append(out, s.buf[(start+i)%len(s.buf)])
	}
	return out
}

// CopyFrom replaces s's ring with src's: the held events, the sequence
// counter and with it the dropped count, the events restamped with s's id.
// Both rings must have the same capacity; CopyFrom returns an error
// otherwise. core.System.Clone uses it to give a cloned system's shards
// the history of the original's. Only the ring is copied: a sink that
// wraps s has not seen the copied events.
func (s *Shard) CopyFrom(src *Shard) error {
	src.mu.Lock()
	defer src.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buf) != len(src.buf) {
		return fmt.Errorf("trace: copy of a %d-event ring into a %d-event ring", len(src.buf), len(s.buf))
	}
	copy(s.buf, src.buf)
	s.next, s.n, s.seq = src.next, src.n, src.seq
	s.restamp()
	return nil
}

// restamp stamps every held event with s's id. Callers hold s.mu.
func (s *Shard) restamp() {
	start := s.next - s.n
	if start < 0 {
		start += len(s.buf)
	}
	for i := 0; i < s.n; i++ {
		s.buf[(start+i)%len(s.buf)].Shard = s.id
	}
}

// DefaultShardCap is the per-shard ring capacity used when a Tracer is
// built with New(0).
const DefaultShardCap = 1 << 14

// Tracer owns a set of shards. The assembled system (internal/core) builds
// one shard per rank plus one for the shared CPU-side pipeline; each shard
// is then only written by the goroutine executing that shard, which is
// what keeps emission contention-free.
type Tracer struct {
	mu       sync.Mutex
	shardCap int
	shards   []*Shard
}

// New returns a Tracer whose shards hold up to shardCap events each
// (DefaultShardCap if shardCap <= 0).
func New(shardCap int) *Tracer {
	if shardCap <= 0 {
		shardCap = DefaultShardCap
	}
	return &Tracer{shardCap: shardCap}
}

// NewShard creates and registers a shard. Shard ids are assigned in
// creation order, which NewSystem makes deterministic within a system;
// systems built concurrently create shards on private tracers that Adopt
// then renumbers in a fixed order.
func (t *Tracer) NewShard(label string) *Shard {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Shard{
		id:    int32(len(t.shards)),
		label: label,
		buf:   make([]Event, t.shardCap),
	}
	t.shards = append(t.shards, s)
	return s
}

// ShardCap returns the ring capacity of the tracer's shards.
func (t *Tracer) ShardCap() int { return t.shardCap }

// Adopt moves every shard of src to the end of t's, in src's creation
// order, and leaves src empty. Each moved shard takes the id its new
// position gives it, and the events it holds are restamped with that id.
// No shard of src may be emitting during the call. A parallel fan-out
// gives each unit a private tracer and adopts them in unit order, so shard
// ids — and with them the (Time, Shard, Seq) merge order — follow the
// units rather than the scheduler.
func (t *Tracer) Adopt(src *Tracer) {
	src.mu.Lock()
	moved := src.shards
	src.shards = nil
	src.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range moved {
		s.mu.Lock()
		s.id = int32(len(t.shards))
		s.restamp()
		s.mu.Unlock()
		t.shards = append(t.shards, s)
	}
}

// Shards returns the registered shards in creation order.
func (t *Tracer) Shards() []*Shard {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Shard(nil), t.shards...)
}

// Dropped returns the total events overwritten across all shards.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	for _, s := range t.Shards() {
		n += s.Dropped()
	}
	return n
}

// Events merges every shard's held events into one deterministic order:
// ascending (Time, Shard, Seq). The order is independent of how the rank
// shards were scheduled, so exports are bit-identical for a fixed seed.
func (t *Tracer) Events() []Event {
	var out []Event
	for _, s := range t.Shards() {
		out = append(out, s.Events()...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}
