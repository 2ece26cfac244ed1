package workload

import (
	"math"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/memctrl"
)

// Traffic generation: the refresh experiments need to know which rows the
// application dirties inside each retention window (that is what sets
// access bits and forces full refreshes of their AR sets), and the
// command-level experiment needs a timed request stream with row addresses.

// RequestRate returns the DRAM requests per nanosecond this profile
// generates per core: MPKI misses per 1000 instructions at the core's
// achieved instruction rate, plus the writeback share.
func (p Profile) RequestRate(ipc, freqGHz float64) float64 {
	instrPerNs := ipc * freqGHz
	misses := instrPerNs * p.MPKI / 1000
	// Writebacks accompany fills in steady state at WriteFrac of
	// total traffic: total = misses / (1 - WriteFrac).
	if p.WriteFrac >= 1 {
		return misses
	}
	return misses / (1 - p.WriteFrac)
}

// WrittenRowsPerWindow returns how many distinct rank-level rows the
// profile dirties in one retention window of the given length (the paper's
// base window is 32 ms; Figure 16's normal-temperature mode doubles it,
// and with it the written footprint).
func (p Profile) WrittenRowsPerWindow(rowBytes int, window dram.Time) int {
	bytes := float64(p.WrittenBytesPerWindow) * float64(window) / float64(dram.TRETExtended)
	rows := int(bytes / float64(rowBytes))
	if rows < 1 {
		rows = 1
	}
	return rows
}

// TouchedRowsPerWindow is the analogous read-or-write footprint used by the
// Smart Refresh comparator.
func (p Profile) TouchedRowsPerWindow(rowBytes int, window dram.Time) int {
	bytes := float64(p.TouchedBytesPerWindow) * float64(window) / float64(dram.TRETExtended)
	rows := int(bytes / float64(rowBytes))
	if rows < 1 {
		rows = 1
	}
	return rows
}

// WindowWriteSet returns the indices (into a wsRows-long allocated region)
// of the rows the profile dirties in retention window `window`: the
// written footprint of the window's length, sampled deterministically in
// (seed, profile, window). It is the one canonical write plan shared by
// the dense experiment loop and the event-driven scheduler — both must
// replay exactly the same stores for the differential tests to pin them
// against each other.
func (p Profile) WindowWriteSet(seed uint64, window, wsRows, rowBytes int, windowLen dram.Time) []int {
	n := p.WrittenRowsPerWindow(rowBytes, windowLen)
	return PickRows(Hash(seed, HashString(p.Name)), window, wsRows, n)
}

// PickRows samples n distinct row indices (working-set locality: rows are
// drawn from the first wsRows rows, wrapping if n exceeds it). The sample
// is deterministic in (seed, window).
func PickRows(seed uint64, window int, wsRows, n int) []int {
	if wsRows <= 0 || n <= 0 {
		return nil
	}
	if n >= wsRows {
		rows := make([]int, wsRows)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	rng := NewSplitMix(Hash(seed, uint64(window), 0x70c4ed))
	seen := make(map[int]bool, n)
	rows := make([]int, 0, n)
	for len(rows) < n {
		r := rng.Intn(wsRows)
		if !seen[r] {
			seen[r] = true
			rows = append(rows, r)
		}
	}
	return rows
}

// GenerateCmdRequests produces a timed request stream with *explicit row
// addresses* for the command-level memory controller: Poisson arrivals at
// the given rate, banks uniform, and per-bank row locality in which the
// next access to a bank stays in its current row with probability
// RowHitRate. Row-buffer hits then emerge from addresses rather than
// being drawn from a distribution.
func (p Profile) GenerateCmdRequests(seed uint64, rate float64, horizon dram.Time, banks, rowsPerBank int) []memctrl.CmdRequest {
	if rate <= 0 || horizon <= 0 || banks <= 0 || rowsPerBank <= 0 {
		return nil
	}
	rng := NewSplitMix(Hash(seed, HashString(p.Name), 0xc3d))
	curRow := make([]int, banks)
	for b := range curRow {
		curRow[b] = rng.Intn(rowsPerBank)
	}
	var reqs []memctrl.CmdRequest
	t := 0.0
	for {
		u := rng.Float64()
		if u <= 0 {
			u = 1e-12
		}
		t += -math.Log(u) / rate
		if dram.Time(t) >= horizon {
			return reqs
		}
		bank := rng.Intn(banks)
		if rng.Float64() >= p.RowHitRate {
			curRow[bank] = rng.Intn(rowsPerBank)
		}
		reqs = append(reqs, memctrl.CmdRequest{
			Arrive: dram.Time(t),
			Bank:   bank,
			Row:    curRow[bank],
			Write:  rng.Float64() < p.WriteFrac,
		})
	}
}
