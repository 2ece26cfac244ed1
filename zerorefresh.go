// Package zerorefresh is a simulation library reproducing "Charge-Aware
// DRAM Refresh Reduction with Value Transformation" (HPCA 2020): the
// ZERO-REFRESH architecture, which skips DRAM refresh for rows whose cells
// are all discharged and transforms cacheline values (EBDI base-delta
// encoding, bit-plane transposition, chip rotation, true/anti-cell aware
// inversion) so that real memory content produces as many fully discharged
// rows as possible.
//
// The package is a facade over the implementation packages:
//
//   - internal/dram      — charge-accurate DRAM rank model
//   - internal/transform — the CPU-side value transformation pipeline
//   - internal/refresh   — the DRAM-side charge-aware refresh engine
//   - internal/memctrl   — controller datapath and performance models
//   - internal/cpu       — first-order core model
//   - internal/workload  — synthetic benchmark suite (SPEC/NPB/TPC-H)
//   - internal/ostrace   — OS allocator and datacenter utilization traces
//   - internal/energy    — DDR4 power/energy models
//   - internal/baseline  — conventional and Smart Refresh comparators
//   - internal/core      — the assembled ZERO-REFRESH system
//   - internal/sim       — one experiment driver per paper table/figure
//
// Quick start:
//
//	sys, err := zerorefresh.NewSystem(zerorefresh.DefaultConfig(8 << 20))
//	if err != nil { ... }
//	sys.CleansePage(0)          // OS frees a page (zero-filled)
//	sys.RunWindow()             // learn
//	st := sys.RunWindow()       // steady state
//	fmt.Println(st.Reduction()) // refresh work avoided
package zerorefresh

import (
	"io"

	"zerorefresh/internal/core"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
	"zerorefresh/internal/workload"
)

// Core system types.
type (
	// Config configures a full ZERO-REFRESH system.
	Config = core.Config
	// System is a fully wired simulated machine: DRAM rank, refresh
	// engine, transform pipeline and memory controller.
	System = core.System
	// CycleStats summarizes one retention window of refresh activity.
	CycleStats = refresh.CycleStats
	// RefreshConfig selects the refresh-engine design knobs.
	RefreshConfig = refresh.Config
	// TransformOptions selects the transformation stages.
	TransformOptions = transform.Options
	// Line is one 64-byte cacheline as eight 64-bit words.
	Line = transform.Line
	// Profile describes one synthetic benchmark application.
	Profile = workload.Profile
	// Time is a simulation timestamp in nanoseconds.
	Time = dram.Time
)

// Cell-type identification fidelities for Config.CellTypes.
const (
	CellTypesExact  = core.CellTypesExact
	CellTypesProbed = core.CellTypesProbed
	CellTypesNoisy  = core.CellTypesNoisy
)

// DefaultConfig returns the paper's base design (full pipeline, rotated
// mapping, per-bank charge-aware refresh with DRAM-resident status table)
// at the given rank capacity in bytes.
func DefaultConfig(capacity int64) Config { return core.DefaultConfig(capacity) }

// NewSystem builds and wires a system.
func NewSystem(cfg Config) (*System, error) { return core.NewSystem(cfg) }

// Benchmarks returns the 23-application evaluation suite (17 SPEC CPU2006,
// 2 NPB, 4 TPC-H) as calibrated synthetic profiles.
func Benchmarks() []Profile { return workload.Benchmarks() }

// BenchmarkByName looks up one suite profile.
func BenchmarkByName(name string) (Profile, bool) { return workload.ByName(name) }

// Transform pipeline building blocks, exposed for experimentation: all are
// lossless bijections on 64-byte lines.
var (
	// EBDIEncode converts a line to base + sign-folded deltas
	// (Section V-B).
	EBDIEncode = transform.EBDIEncode
	// EBDIDecode inverts EBDIEncode.
	EBDIDecode = transform.EBDIDecode
	// BitPlaneTranspose re-orders delta bits so zero bits cluster at
	// the line tail (Section V-C).
	BitPlaneTranspose = transform.BitPlaneTranspose
	// BitPlaneInverse inverts BitPlaneTranspose.
	BitPlaneInverse = transform.BitPlaneInverse
)

// LineFromBytes builds a Line from a 64-byte buffer.
func LineFromBytes(b *[64]byte) Line { return transform.LineFromBytes(b) }

// ChipMapping distributes cacheline words over the rank's chips
// (Section V-D).
type ChipMapping = transform.ChipMapping

// RotatedMapping is the ZERO-REFRESH mapping: whole words per chip,
// rotated by row index so each chip-row holds one word class.
func RotatedMapping() ChipMapping { return transform.RotatedMapping{} }

// DirectMapping stores word w on chip w with no rotation (ablation).
func DirectMapping() ChipMapping { return transform.DirectMapping{} }

// ByteScatterMapping is the conventional DDR burst mapping that scatters
// every word over all chips (ablation; defeats skipping, Figure 13).
func ByteScatterMapping() ChipMapping { return transform.ByteScatterMapping{} }

// Retention-window constants (Section II-C).
const (
	TRETNormal   = dram.TRETNormal
	TRETExtended = dram.TRETExtended
)

// Observability (internal/trace, internal/core): typed event tracing and
// per-window time-series capture.
type (
	// Tracer collects typed simulation events in per-shard
	// single-writer rings; set Config.Trace (or ExperimentOptions.Trace)
	// to enable it.
	Tracer = trace.Tracer
	// TraceEvent is one typed simulation event.
	TraceEvent = trace.Event
	// Epoch is one retention window's refresh stats plus the metrics
	// delta accumulated during it.
	Epoch = core.Epoch
)

// NewTracer returns a tracer whose shards hold the newest shardCap events
// each (0 selects the default capacity).
func NewTracer(shardCap int) *Tracer { return trace.New(shardCap) }

// WriteChromeTrace exports a tracer's merged events as Chrome trace-event
// JSON, loadable in chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, t *Tracer) error { return trace.WriteChrome(w, t) }
