package dram

import (
	"errors"
	"fmt"
)

// Cacheline geometry shared by the whole simulator.
const (
	LineBytes    = 64 // one CPU cacheline
	WordBytes    = 8  // EBDI word size (Section V-B, "fixed to 8 bytes")
	WordsPerLine = LineBytes / WordBytes
)

// LineChips is the rank width: the number of DRAM devices operated in
// unison, one 8-byte word of every 64-byte cacheline per chip (Table II's
// 8 chips). The staggered refresh counters (Section IV-C) and the rotated
// chip mapping (Section V-D) are both defined on this shape.
const LineChips = WordsPerLine

// Config describes the geometry of one simulated DRAM rank.
//
// The paper's base configuration (Table II) is 32 GB, 8 chips, 8 banks and a
// 4 KB row buffer. A row here is a *rank-level* row: the unit brought into
// the sense amplifiers by one activation across all LineChips chips of the
// rank. Each chip contributes RowBytes/LineChips bytes of it.
type Config struct {
	// Banks is the number of banks per chip.
	Banks int
	// RowsPerBank is the number of rank-level rows per bank.
	RowsPerBank int
	// RowBytes is the rank-level row-buffer size in bytes (2-8 KB in
	// commodity parts; 4 KB in the paper's base configuration).
	RowBytes int
	// CellGroupRows is the true/anti-cell interleaving period: rows
	// [0,N), [2N,3N), ... are true-cell rows and the rest are anti-cell
	// rows. Prior work found N=512 in common devices (Section II-B).
	CellGroupRows int
	// Timing holds the retention window and command timings.
	Timing Timing
}

// DefaultConfig returns the Table II geometry scaled to the given total
// capacity in bytes. Capacity must be divisible by Banks*RowBytes.
func DefaultConfig(capacity int64) Config {
	cfg := Config{
		Banks:         8,
		RowBytes:      4096,
		CellGroupRows: 512,
		Timing:        DefaultTiming(),
	}
	cfg.RowsPerBank = int(capacity / int64(cfg.Banks) / int64(cfg.RowBytes))
	return cfg
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0:
		return errors.New("dram: Banks must be positive")
	case c.RowsPerBank <= 0:
		return errors.New("dram: RowsPerBank must be positive")
	case c.RowBytes <= 0:
		return errors.New("dram: RowBytes must be positive")
	case c.CellGroupRows <= 0:
		return errors.New("dram: CellGroupRows must be positive")
	}
	if c.RowBytes%LineBytes != 0 {
		// Whole cachelines also give every chip a whole number of words.
		return fmt.Errorf("dram: RowBytes (%d) must hold whole %d-byte cachelines", c.RowBytes, LineBytes)
	}
	if c.RowsPerBank%LineChips != 0 {
		// The staggered refresh-counter scheme (Section IV-C) walks rows
		// in blocks of LineChips rows; requiring divisibility keeps every
		// block complete.
		return fmt.Errorf("dram: RowsPerBank (%d) must be a multiple of the %d-row stagger block", c.RowsPerBank, LineChips)
	}
	if c.Timing.TRET <= 0 {
		return errors.New("dram: Timing.TRET must be positive")
	}
	if c.Timing.NumAutoRefresh <= 0 {
		return errors.New("dram: Timing.NumAutoRefresh must be positive")
	}
	return nil
}

// ChipRowBytes is the number of bytes each chip stores per rank-level row.
func (c Config) ChipRowBytes() int { return c.RowBytes / LineChips }

// WordsPerChipRow is the number of 8-byte word slots per chip row.
func (c Config) WordsPerChipRow() int { return c.ChipRowBytes() / WordBytes }

// LinesPerRow is the number of cachelines stored in one rank-level row.
func (c Config) LinesPerRow() int { return c.RowBytes / LineBytes }

// Capacity returns the total rank capacity in bytes.
func (c Config) Capacity() int64 {
	return int64(c.Banks) * int64(c.RowsPerBank) * int64(c.RowBytes)
}

// TotalRows returns the number of rank-level rows across all banks.
func (c Config) TotalRows() int { return c.Banks * c.RowsPerBank }

// CellTypeOf returns the cell type of a rank-level row index. Rows are
// partitioned into alternating groups of CellGroupRows rows connected to
// opposite sides of the differential sense amplifiers (Section II-B).
func (c Config) CellTypeOf(row int) CellType {
	if (row/c.CellGroupRows)%2 == 0 {
		return TrueCell
	}
	return AntiCell
}
