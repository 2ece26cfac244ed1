package baseline

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/workload"
)

// RetentionAware is a RAIDR-style comparator (Liu et al., ISCA 2012,
// discussed in Section II-D): rows are profiled into retention-time bins,
// and a row whose weakest cell retains for 2^k base windows is refreshed
// only every 2^k windows. It exploits the skewed retention distribution —
// under 1% of cells need the worst-case rate — rather than values.
//
// The paper contrasts this family with ZERO-REFRESH: retention profiles
// are static, and variable retention time (VRT) silently invalidates them,
// whereas charge-aware skipping only ever skips rows with *no charge to
// lose*. InjectVRT models that hazard: it demotes rows' true retention
// after profiling, and UnsafeSkips counts refreshes the stale profile
// skips on rows that can no longer afford them — each a potential data
// loss. ZERO-REFRESH has no analogous failure mode.
type RetentionAware struct {
	banks, rowsPerBank int
	// bin[b][r]: the *profiled* bin of the row; refreshed when
	// window % 2^bin == 0.
	bin [][]uint8
	// trueBin[b][r]: the current physical bin (≤ profiled bin after
	// VRT demotion).
	trueBin [][]uint8
	window  int64

	refreshed, skipped, unsafe int64
}

// Retention-bin distribution. RAIDR's profiling found ~1000 cells weaker
// than 256 ms in a 32 GB system and ~30K weaker than 128 ms; at 4 KB rows
// the corresponding row-level probabilities give roughly these fractions.
const (
	fracBin0 = 0.001 // rows stuck at the base rate (a <64ms-class cell)
	fracBin1 = 0.029 // rows refreshable every 2 windows
	// remainder: every 4 windows (bin 2)
)

// NewRetentionAware builds the comparator with a deterministic profile.
func NewRetentionAware(banks, rowsPerBank int, seed uint64) *RetentionAware {
	if banks <= 0 || rowsPerBank <= 0 {
		panic("baseline: geometry must be positive")
	}
	r := &RetentionAware{banks: banks, rowsPerBank: rowsPerBank}
	rng := workload.NewSplitMix(workload.Hash(seed, 0x4a1d4))
	r.bin = make([][]uint8, banks)
	r.trueBin = make([][]uint8, banks)
	for b := 0; b < banks; b++ {
		r.bin[b] = make([]uint8, rowsPerBank)
		r.trueBin[b] = make([]uint8, rowsPerBank)
		for row := 0; row < rowsPerBank; row++ {
			u := rng.Float64()
			var k uint8
			switch {
			case u < fracBin0:
				k = 0
			case u < fracBin0+fracBin1:
				k = 1
			default:
				k = 2
			}
			r.bin[b][row] = k
			r.trueBin[b][row] = k
		}
	}
	return r
}

// InjectVRT demotes the *true* retention of the given fraction of rows by
// one bin, without updating the (static) profile — the VRT hazard of
// Section II-D. Returns how many rows were demoted below their profile.
func (r *RetentionAware) InjectVRT(fraction float64, seed uint64) int {
	rng := workload.NewSplitMix(workload.Hash(seed, 0x467))
	demoted := 0
	for b := range r.trueBin {
		for row := range r.trueBin[b] {
			if r.trueBin[b][row] > 0 && rng.Float64() < fraction {
				r.trueBin[b][row]--
				if r.trueBin[b][row] < r.bin[b][row] {
					demoted++
				}
			}
		}
	}
	return demoted
}

// NoteWrite implements engine.WriteNotifier. A static retention profile
// ignores accesses — that blindness is exactly the VRT hazard this
// comparator quantifies — so the notification is a no-op.
func (r *RetentionAware) NoteWrite(bank, row int) {}

// due reports whether the profiled bin schedules a refresh this window.
func due(bin uint8, window int64) bool {
	return window%(1<<bin) == 0
}

// RunPolicyCycle implements engine.RefreshPolicy: it executes one base
// retention window (the start time is irrelevant to this window-granular
// model).
func (r *RetentionAware) RunPolicyCycle(dram.Time) engine.CycleResult {
	st := engine.CycleResult{Steps: int64(r.banks) * int64(r.rowsPerBank)}
	for b := 0; b < r.banks; b++ {
		for row := 0; row < r.rowsPerBank; row++ {
			if due(r.bin[b][row], r.window) {
				st.Refreshed++
				continue
			}
			st.Skipped++
			// Skipping is only safe if the row's *true* bin also
			// tolerates it; a VRT-demoted row may not.
			if !due(r.trueBin[b][row], r.window) {
				continue
			}
			r.unsafe++
		}
	}
	r.window++
	r.refreshed += st.Refreshed
	r.skipped += st.Skipped
	return st
}

// SteadyStateNormalizedRefresh returns the long-run refresh ratio of the
// profile: sum over bins of fraction/2^bin.
func (r *RetentionAware) SteadyStateNormalizedRefresh() float64 {
	counts := make(map[uint8]int64)
	for b := range r.bin {
		for _, k := range r.bin[b] {
			counts[k]++
		}
	}
	total := float64(r.banks) * float64(r.rowsPerBank)
	norm := 0.0
	for k, n := range counts {
		norm += float64(n) / total / float64(int64(1)<<k)
	}
	return norm
}

// UnsafeSkips returns the number of refreshes skipped on rows whose true
// retention no longer tolerated the skip — silent-corruption candidates.
func (r *RetentionAware) UnsafeSkips() int64 { return r.unsafe }

// Totals returns cumulative refreshed/skipped counts.
func (r *RetentionAware) Totals() (refreshed, skipped int64) {
	return r.refreshed, r.skipped
}
