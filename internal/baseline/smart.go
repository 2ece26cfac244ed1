// Package baseline implements the comparator refresh policies the paper
// evaluates against: the conventional refresh-everything controller (the
// normalization baseline of every figure) and Smart Refresh (Ghosh & Lee,
// MICRO 2007), which skips the refresh of rows that were accessed — and
// therefore implicitly recharged — within the current retention window.
// Figure 19 contrasts its capacity scaling with ZERO-REFRESH's.
package baseline

import (
	"fmt"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
)

// SmartRefresh tracks per-row access recency at rank-row granularity and
// skips refreshes for rows touched in the current window.
type SmartRefresh struct {
	banks, rowsPerBank int
	touched            [][]bool
	touchedCount       int64

	cycles    int64
	refreshed int64
	skipped   int64
}

// NewSmartRefresh builds the comparator for a rank geometry.
func NewSmartRefresh(banks, rowsPerBank int) *SmartRefresh {
	if banks <= 0 || rowsPerBank <= 0 {
		panic("baseline: geometry must be positive")
	}
	s := &SmartRefresh{banks: banks, rowsPerBank: rowsPerBank}
	s.touched = make([][]bool, banks)
	for b := range s.touched {
		s.touched[b] = make([]bool, rowsPerBank)
	}
	return s
}

// NoteWrite implements engine.WriteNotifier: the activation of any read
// or write to a rank-level row recharges it, so its next refresh is
// unnecessary.
func (s *SmartRefresh) NoteWrite(bank, row int) {
	if bank < 0 || bank >= s.banks || row < 0 || row >= s.rowsPerBank {
		panic(fmt.Sprintf("baseline: access (%d,%d) out of range", bank, row))
	}
	if !s.touched[bank][row] {
		s.touched[bank][row] = true
		s.touchedCount++
	}
}

// RunPolicyCycle implements engine.RefreshPolicy. It closes the current
// retention window: rows touched during it skip their refresh, everything
// else is refreshed, and the touch state resets for the next window. The
// start time is irrelevant to this window-granular model.
func (s *SmartRefresh) RunPolicyCycle(dram.Time) engine.CycleResult {
	steps := int64(s.banks) * int64(s.rowsPerBank)
	st := engine.CycleResult{
		Steps:     steps,
		Skipped:   s.touchedCount,
		Refreshed: steps - s.touchedCount,
	}
	for b := range s.touched {
		for r := range s.touched[b] {
			s.touched[b][r] = false
		}
	}
	s.touchedCount = 0
	s.cycles++
	s.refreshed += st.Refreshed
	s.skipped += st.Skipped
	return st
}

// Totals returns cumulative refreshed/skipped counts.
func (s *SmartRefresh) Totals() (cycles, refreshed, skipped int64) {
	return s.cycles, s.refreshed, s.skipped
}
