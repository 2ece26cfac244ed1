package refresh

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/trace"
)

// CycleStats summarizes one full retention window of refresh activity
// (every row of every bank visited once).
type CycleStats struct {
	// Steps is the number of refresh steps considered: Banks*RowsPerBank.
	Steps int64
	// Refreshed and Skipped partition Steps.
	Refreshed int64
	Skipped   int64
	// ChipRefreshed and ChipSkipped count chip-row refreshes — the
	// common currency between the rank-synchronous and per-chip-status
	// designs (a step is LineChips chip-rows).
	ChipRefreshed int64
	ChipSkipped   int64
	// TableRows is the extra refresh work for the DRAM-resident
	// discharged-status table during the cycle.
	TableRows int64
	// ARCommands is the number of AR commands issued; FullySkippedARs of
	// them skipped every step (their tRFC vanishes from the bank's
	// unavailable time).
	ARCommands      int64
	FullySkippedARs int64
	// StatusReads/StatusWrites count DRAM accesses to the status table.
	StatusReads  int64
	StatusWrites int64
	// Start and End bound the cycle in simulation time.
	Start, End dram.Time
}

// NormalizedRefresh returns the ratio of refresh work to the conventional
// baseline, which refreshes every step and has no table overhead. This is
// the metric of Figures 14, 16, 18 and 19.
func (c CycleStats) NormalizedRefresh() float64 {
	if c.Steps == 0 {
		return 0
	}
	return float64(c.Refreshed+c.TableRows) / float64(c.Steps)
}

// NormalizedChipRefresh is the chip-row-granular ratio, comparable across
// the rank-synchronous and per-chip-status designs (which may refresh only
// part of a step). Status-table rows count at full chip width.
func (c CycleStats) NormalizedChipRefresh() float64 {
	total := c.ChipRefreshed + c.ChipSkipped
	if total == 0 {
		return c.NormalizedRefresh()
	}
	return float64(c.ChipRefreshed+c.TableRows*dram.LineChips) / float64(total)
}

// Reduction returns 1 - NormalizedRefresh.
func (c CycleStats) Reduction() float64 { return 1 - c.NormalizedRefresh() }

// Add accumulates another cycle into c (for multi-window averages).
func (c *CycleStats) Add(o CycleStats) {
	c.Steps += o.Steps
	c.Refreshed += o.Refreshed
	c.Skipped += o.Skipped
	c.ChipRefreshed += o.ChipRefreshed
	c.ChipSkipped += o.ChipSkipped
	c.TableRows += o.TableRows
	c.ARCommands += o.ARCommands
	c.FullySkippedARs += o.FullySkippedARs
	c.StatusReads += o.StatusReads
	c.StatusWrites += o.StatusWrites
	if o.End > c.End {
		c.End = o.End
	}
}

// RunCycle performs one complete retention window starting at start: every
// AR set of every bank exactly once, with commands spread uniformly over
// TRET as the memory controller would issue them (interval tREFI per set).
//
// Under the per-bank policy the banks receive their commands for a set at
// the same nominal time (the real controller staggers them by a few tens of
// ns; irrelevant at retention timescales). Under the all-bank policy this
// is also the functional behaviour; the difference is performance-model
// blocking, handled by internal/memctrl.
func (e *Engine) RunCycle(start dram.Time) CycleStats {
	interval := e.mod.Config().Timing.TRET / dram.Time(e.numARs)
	stats := CycleStats{Start: start}
	for i := 0; i < e.numARs; i++ {
		now := start + dram.Time(i)*interval
		for bank := 0; bank < e.banks; bank++ {
			res := e.AutoRefresh(bank, now)
			stats.Refreshed += int64(res.Refreshed)
			stats.Skipped += int64(res.Skipped)
			stats.ChipRefreshed += int64(res.ChipRefreshed)
			stats.ChipSkipped += int64(res.ChipSkipped)
			stats.ARCommands++
			if res.FullySkipped {
				stats.FullySkippedARs++
			}
			if res.StatusRead {
				stats.StatusReads++
			}
			if res.StatusWrite {
				stats.StatusWrites++
			}
		}
	}
	stats.Steps = int64(e.banks) * int64(e.rowsPerBank)
	// The status-table rows refresh unconditionally every cycle; they
	// are accounted separately so Refreshed+Skipped == Steps holds.
	stats.TableRows = int64(e.StatusTableRows())
	e.tableRowRefreshes.Add(stats.TableRows)
	stats.End = start + e.mod.Config().Timing.TRET
	if e.tr != nil {
		e.tr.Emit(trace.Event{
			Kind: trace.KindWindowRollover, Time: int64(stats.End),
			Chip: -1, Bank: -1, Row: -1,
			A: stats.Refreshed, B: stats.Skipped,
		})
	}
	return stats
}

// CycleResult converts the charge-aware cycle summary to the
// policy-agnostic currency of engine.CycleResult. The status-table rows
// count as refresh work (they are rows the design must refresh every
// cycle), so NormalizedRefresh agrees between the two representations.
func (c CycleStats) CycleResult() engine.CycleResult {
	return engine.CycleResult{
		Steps:     c.Steps,
		Refreshed: c.Refreshed + c.TableRows,
		Skipped:   c.Skipped,
		Start:     c.Start,
		End:       c.End,
	}
}

// RunPolicyCycle implements engine.RefreshPolicy: one full retention
// window through the charge-aware engine.
func (e *Engine) RunPolicyCycle(start dram.Time) engine.CycleResult {
	return e.RunCycle(start).CycleResult()
}
