// Package engine defines the narrow interfaces between the simulator's
// layers, so the assembled system (internal/core) and the experiment
// drivers (internal/sim) depend on behaviour rather than on the concrete
// dram / refresh / baseline / transform types. This is what lets the
// window-stepped refresh baselines (Smart Refresh, RAIDR-style) share one
// loop, the controller run any line codec, and per-rank shards execute
// concurrently behind one stable contract.
package engine

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
)

// Tracer is the event sink the hardware layers emit typed simulation events
// into (see internal/trace for the event taxonomy). It is an alias rather
// than a wrapper so that internal/dram — which sits below this package and
// therefore names trace.Sink directly — and the layers above it share one
// interface identity. Every layer treats a nil tracer as "tracing off": each
// emission site is guarded by a single nil check and nothing else.
type Tracer = trace.Sink

// MemoryBackend is the hardware contract a refresh engine and a
// memory-controller datapath need from a DRAM rank: line-granular reads and
// row bursts that write (both activate, and therefore recharge, the rows),
// refresh of one auto-refresh command's staggered diagonal groups in one
// call, with discharged-row sensing that leaves spared rows (row sparing's
// remapped rows, which must never skip refresh) out of the status masks,
// and the idle-window bulk refresh of a command's groups. Every method acts
// on all dram.LineChips chips of the rank at once, except Refresh, which
// the per-chip-status design variant issues chip by chip.
// *dram.Module is the one production implementation, keeping every
// chip-row's state in one dense table; the differential tests put a
// per-chip scalar twin behind the same contract.
type MemoryBackend interface {
	// Config returns the rank geometry.
	Config() dram.Config
	// Refresh recharges one chip-row and reports whether it was fully
	// discharged.
	Refresh(chip, bank, rowIdx int, now dram.Time) (discharged bool)

	// BeginRowWrite opens a row burst on (bank, row): dram.StoreRange
	// stores ranges of the row's slots through the returned cursor — a
	// whole page, or one scattered cacheline as a one-slot range —
	// activating each chip-row once, and leaves exactly the state,
	// counters and per-slot trace events of storing the slots one at a
	// time in slot order. The caller ends it with End.
	BeginRowWrite(bank, rowIdx int, now dram.Time) dram.RowWrite
	// ReadLineWords returns word slot `slot` of (bank, row) in every
	// chip, applying the retention model as the hardware would.
	ReadLineWords(bank, rowIdx, slot int, now dram.Time) [dram.LineChips]uint64
	// RefreshGroups refreshes diagonal groups in order at time now —
	// groups[i][c] in chip c, each group one staggered refresh step — and,
	// unless masks is nil, stores group i's status mask in masks[i]: bit
	// c set iff chip c's row was fully discharged and not remapped by row
	// sparing. Equivalent to a loop over the groups and their chips of
	// Refresh and dram.Module.IsSpared; the counters and the refresh-age
	// histogram see one update per call.
	RefreshGroups(bank int, groups [][dram.LineChips]int, now dram.Time, masks []uint16)
	// ReplayRefreshGroups fast-forwards refresh across idle windows: one
	// call applies `windows` evenly spaced RefreshGroups calls of a
	// command's diagonal groups, whose chip-rows are distinct — first at
	// time `first`, then every `period` — with exactly the cell state,
	// counters, histogram observations and trace events they would
	// produce, provided nothing else touches the rows in between.
	ReplayRefreshGroups(bank int, groups [][dram.LineChips]int, first, period dram.Time, windows int64)
}

// WriteNotifier receives write notifications from the controller datapath.
// It is the store-path sliver of RefreshPolicy, split out so the
// controller does not need a full policy (and so a policy that ignores
// accesses, like a static retention profile, can embed a no-op).
type WriteNotifier interface {
	// NoteWrite records that a write touched the rank-level row of a
	// bank since the policy's last visit to it.
	NoteWrite(bank, row int)
}

// CycleResult is the policy-agnostic summary of one retention window of
// refresh activity: how many row-refresh steps the policy considered and
// how it partitioned them. It is the common currency the comparison
// experiments use across refresh-policy families.
type CycleResult struct {
	// Steps is the number of refresh steps considered (Banks*RowsPerBank
	// for a full window).
	Steps int64
	// Refreshed and Skipped partition Steps. Refreshed includes any
	// policy bookkeeping refreshes (e.g. status-table rows), so
	// Refreshed/Steps is directly the normalized-refresh metric.
	Refreshed int64
	Skipped   int64
	// Start and End bound the window in simulation time; policies
	// without a timing model may leave them zero.
	Start, End dram.Time
}

// NormalizedRefresh returns refresh work relative to the conventional
// refresh-everything baseline.
func (c CycleResult) NormalizedRefresh() float64 {
	if c.Steps == 0 {
		return 0
	}
	return float64(c.Refreshed) / float64(c.Steps)
}

// RefreshPolicy is one refresh-skipping scheme driven window by window:
// it learns from write notifications and executes one full retention
// window per RunPolicyCycle call. Implemented by Smart Refresh and the
// RAIDR-style retention-aware policy (internal/baseline); the charge-aware
// engine runs inside the full system simulation instead (core.System).
type RefreshPolicy interface {
	WriteNotifier
	// RunPolicyCycle executes one retention window starting at start and
	// summarizes the refresh work performed.
	RunPolicyCycle(start dram.Time) CycleResult
}

// LineCodec transforms cachelines between their CPU and in-DRAM
// representations. Encode and Decode must be inverses for every rowIdx.
// transform.Pipeline (the ZERO-REFRESH value transformation, every stage
// switchable for the ablations) is the production implementation; the
// controller benchmarks swap in an identity codec to time the datapath
// alone.
type LineCodec interface {
	// Encode transforms a cacheline for storage in rank-level row rowIdx.
	Encode(l transform.Line, rowIdx int) transform.Line
	// EncodeRow encodes the lines of one rank-level row in place, with
	// the accounting — transform ops, zero-word observations,
	// codec-selection events in line order — exactly as one Encode call
	// per line would charge it.
	EncodeRow(lines []transform.Line, rowIdx int)
	// Decode inverts Encode for a line read back from row rowIdx.
	Decode(l transform.Line, rowIdx int) transform.Line
	// Ops returns the number of transform operations performed, the
	// quantity the energy model charges per-op cost to.
	Ops() int64
}
