package transform

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/rng"
)

// CellTypeMap supplies the CPU side's belief about the cell type of each
// rank-level row. The hardware hides the true layout, so real systems must
// identify it experimentally (Section II-B); the map abstraction lets the
// simulator use an oracle, a probed identification, or a deliberately noisy
// one for sensitivity studies.
type CellTypeMap interface {
	TypeOf(rowIdx int) dram.CellType
}

// ExactTypes is an oracle map derived directly from the DRAM geometry.
type ExactTypes struct {
	Cfg dram.Config
}

// TypeOf implements CellTypeMap.
func (e ExactTypes) TypeOf(rowIdx int) dram.CellType { return e.Cfg.CellTypeOf(rowIdx) }

// ProbedTypes holds an identification produced by the systematic probe of
// Identify. It is a plain table so lookups are O(1).
type ProbedTypes struct {
	types []dram.CellType
}

// TypeOf implements CellTypeMap.
func (p *ProbedTypes) TypeOf(rowIdx int) dram.CellType { return p.types[rowIdx] }

// CellProber is the minimal slice of the DRAM rank the boot-time
// identification probe needs: geometry plus raw word access, the
// word-granular API of *dram.Module that the line-granular
// engine.MemoryBackend does not carry. transform sits below engine in the
// layer graph, so it declares its own view.
type CellProber interface {
	// Config returns the rank geometry.
	Config() dram.Config
	// ReadWord returns word slot wordIdx of the chip-row.
	ReadWord(chip, bank, rowIdx, wordIdx int, now dram.Time) uint64
	// WriteWord stores v into word slot wordIdx of the chip-row.
	WriteWord(chip, bank, rowIdx, wordIdx int, v uint64, now dram.Time)
}

// Identify runs the cell-type identification procedure from the prior work
// the paper builds on (Section II-B): for every row, write all logical
// zeros, disable refresh for a couple of retention windows, and read back.
// If the zeros survive, the cells holding them were discharged — a
// true-cell row; if they flipped, the zeros had been stored charged — an
// anti-cell row.
//
// The probe is destructive and is intended to run once at boot on an empty
// module. It probes chip 0, bank 0, which suffices because cell type is a
// property of the row index across the rank.
func Identify(m CellProber, start dram.Time) (*ProbedTypes, dram.Time) {
	cfg := m.Config()
	types := make([]dram.CellType, cfg.RowsPerBank)
	now := start
	// Write logical zeros into word 0 of every row.
	for r := 0; r < cfg.RowsPerBank; r++ {
		m.WriteWord(0, 0, r, 0, 0, now)
	}
	// Let two retention windows pass with refresh disabled.
	now += 2*cfg.Timing.TRET + 1
	for r := 0; r < cfg.RowsPerBank; r++ {
		if m.ReadWord(0, 0, r, 0, now) == 0 {
			types[r] = dram.TrueCell
		} else {
			types[r] = dram.AntiCell
		}
	}
	return &ProbedTypes{types: types}, now
}

// NoisyTypes wraps another map and flips a fraction of its answers,
// modelling imperfect identification. The flips are deterministic per row
// for a given seed, so encode and decode always agree — as in the paper,
// misprediction loses refresh-reduction opportunity but never data.
type NoisyTypes struct {
	inner   CellTypeMap
	flipped map[int]bool
}

// NewNoisyTypes flips each of the rows' predictions independently with the
// given probability. The flip pattern comes from a SplitMix stream seeded
// only by the caller's seed, so identification noise is reproducible
// bit-for-bit across runs and shards — the property the determinism
// analyzer guards.
func NewNoisyTypes(inner CellTypeMap, rows int, errorRate float64, seed int64) *NoisyTypes {
	prng := rng.NewSplitMix(rng.Hash(uint64(seed), 0x9015e))
	n := &NoisyTypes{inner: inner, flipped: make(map[int]bool)}
	for r := 0; r < rows; r++ {
		if prng.Float64() < errorRate {
			n.flipped[r] = true
		}
	}
	return n
}

// TypeOf implements CellTypeMap.
func (n *NoisyTypes) TypeOf(rowIdx int) dram.CellType {
	t := n.inner.TypeOf(rowIdx)
	if n.flipped[rowIdx] {
		if t == dram.TrueCell {
			return dram.AntiCell
		}
		return dram.TrueCell
	}
	return t
}

// MispredictionCount reports how many rows the noisy map misidentifies.
func (n *NoisyTypes) MispredictionCount() int { return len(n.flipped) }
