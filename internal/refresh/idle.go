package refresh

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
)

// Idle-window bulk replay.
//
// When no write has touched a rank since its last retention window, the
// next window is a fixed point of the engine: the access bits are all
// clear, so every AR takes the bit-clear path, the status table is never
// rewritten, and the skip/refresh partition of the steps is exactly the
// partition of the previous window. Running k such windows one by one
// repeats identical work k times; ReplayIdleCycles collapses the run into
// one pass over the step space with the per-window effects applied in
// bulk. The result — cell state, counter totals, histogram contents,
// CycleStats — is bit-identical to k dense RunCycle calls, which the
// differential tests pin.

// Idle reports whether every access bit is clear: no write has touched the
// rank since the last AR covering the written set. Only then is the next
// window a pure replay of the previous one. The table is bit-packed, so
// the probe resolves 64 AR sets per word — one load per bank at the
// paper's geometry — instead of walking a bool per set.
func (e *Engine) Idle() bool {
	for _, words := range e.accessBits {
		for _, w := range words {
			if w != 0 {
				return false
			}
		}
	}
	return true
}

// CanReplayIdle reports whether ReplayIdleCycles may take its bulk fast
// path right now. Beyond idleness it needs the conditions under which the
// replay is provably identical to the dense loop: no active tracer
// (per-step skip events carry growing run lengths that cannot be
// synthesized in bulk) and the rank-synchronous status design (per-chip
// status refreshes partial groups).
//
// A sink that implements trace.PassiveSink and reports Passive — the
// introspection plane's tee while the flight recorder is disarmed and no
// tail client is connected — does not block replay: nothing downstream
// would observe the events a dense window emits, so skipping them is
// unobservable and the fast path stays available under `zrsim -serve`.
func (e *Engine) CanReplayIdle() bool {
	if tracingActive(e.tr) || e.cfg.PerChipStatus {
		return false
	}
	return e.Idle()
}

// tracingActive reports whether tr would observe events emitted now: it is
// non-nil and not a currently-passive interposer (trace.PassiveSink).
func tracingActive(tr engine.Tracer) bool {
	if tr == nil {
		return false
	}
	if p, ok := tr.(interface{ Passive() bool }); ok && p.Passive() {
		return false
	}
	return true
}

// ReplayIdleCycles runs k consecutive retention windows starting at start
// — the window the dense loop would run as RunCycle(start),
// RunCycle(start+TRET), … — and returns their accumulated CycleStats.
// When CanReplayIdle holds it does so in one O(banks·rows) pass
// independent of k; otherwise it falls back to k dense cycles, so callers
// may invoke it unconditionally.
//
//zr:hotpath
func (e *Engine) ReplayIdleCycles(start dram.Time, k int64) CycleStats {
	tret := e.mod.Config().Timing.TRET
	if k <= 0 {
		return CycleStats{Start: start, End: start}
	}
	if k == 1 || !e.CanReplayIdle() {
		stats := CycleStats{Start: start}
		for c := int64(0); c < k; c++ {
			stats.Add(e.RunCycle(start + dram.Time(c)*tret))
		}
		return stats
	}

	interval := tret / dram.Time(e.numARs)
	var refreshedPerCycle, skippedPerCycle, fullySkippedARsPerCycle int64
	for bank := 0; bank < e.banks; bank++ {
		for t := 0; t < e.numARs; t++ {
			// The cursor is untouched: k full cycles advance it k·numARs
			// times, which is the identity. Tick t issues the set the
			// dense loop would.
			set := (e.arCursor[bank] + t) % e.numARs
			now := start + dram.Time(t)*interval
			first := set * e.cfg.RowsPerAR
			refreshed := 0
			for n := first; n < first+e.cfg.RowsPerAR; n++ {
				if e.cfg.Skip && e.status[bank][n] == fullMask {
					// Skipped in every replayed window: the run just grows.
					e.skipRun[bank][n] += int32(k)
					skippedPerCycle++
					continue
				}
				// Refreshed in every replayed window. The first refresh
				// terminates any accumulated skip run (as dense noteRefresh
				// would); the k-1 after it see a zero run and observe
				// nothing.
				refreshed++
				if run := e.skipRun[bank][n]; run > 0 {
					e.dischargedRunLen.Observe(int64(run))
					e.skipRun[bank][n] = 0
				}
				e.mod.ReplayRefreshGroup(bank, e.stepRows(n), now, tret, k)
			}
			refreshedPerCycle += int64(refreshed)
			if refreshed == 0 {
				fullySkippedARsPerCycle++
			}
			e.lastSetRefreshed[bank][set] = refreshed
		}
	}

	arPerCycle := int64(e.banks) * int64(e.numARs)
	stats := CycleStats{
		Steps:           k * int64(e.banks) * int64(e.rowsPerBank),
		Refreshed:       k * refreshedPerCycle,
		Skipped:         k * skippedPerCycle,
		TableRows:       k * int64(e.StatusTableRows()),
		ARCommands:      k * arPerCycle,
		FullySkippedARs: k * fullySkippedARsPerCycle,
		Start:           start,
		End:             start + dram.Time(k)*tret,
	}
	stats.ChipRefreshed = stats.Refreshed * dram.LineChips
	stats.ChipSkipped = stats.Skipped * dram.LineChips
	if e.cfg.StatusInDRAM {
		stats.StatusReads = k * arPerCycle
	}
	e.arCommands.Add(stats.ARCommands)
	e.stepsConsidered.Add(stats.Steps)
	e.stepsRefreshed.Add(stats.Refreshed)
	e.stepsSkipped.Add(stats.Skipped)
	e.statusReads.Add(stats.StatusReads)
	e.fullySkippedARs.Add(stats.FullySkippedARs)
	e.tableRowRefreshes.Add(stats.TableRows)
	return stats
}
