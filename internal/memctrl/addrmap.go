// Package memctrl implements the memory-controller side of the simulator:
// physical-address mapping, the read/write datapath that routes every
// cacheline through the ZERO-REFRESH value-transformation pipeline and the
// rotated chip mapping, write notifications to the refresh engine, and a
// bank-queue performance model for refresh interference.
package memctrl

import (
	"fmt"

	"zerorefresh/internal/dram"
)

// Location identifies where a cacheline lives in the rank.
type Location struct {
	// Bank is the bank index.
	Bank int
	// Row is the rank-level row index within the bank — the index the
	// refresh counters, cell types and rotation are keyed on.
	Row int
	// Slot is the cacheline slot within the row (column address).
	Slot int
}

// AddressMap translates physical addresses to DRAM locations. Banks are
// interleaved at *stagger-block* granularity (LineChips consecutive rows,
// 32 KB in the base configuration): the LineChips rows that one staggered
// refresh diagonal sweeps (Section IV-C) hold contiguous physical memory,
// so the word classes gathered by the data-rotation stage come from one
// contiguous content region. Interleaving at finer (row/page) granularity
// would scatter each refresh group's content across a Banks-times-larger
// region and forfeit most skip opportunities.
type AddressMap struct {
	cfg dram.Config
}

// NewAddressMap builds a map for the geometry.
func NewAddressMap(cfg dram.Config) AddressMap { return AddressMap{cfg: cfg} }

// Locate maps a line-aligned physical address to its DRAM location.
func (a AddressMap) Locate(addr uint64) (Location, error) {
	if addr%dram.LineBytes != 0 {
		return Location{}, fmt.Errorf("memctrl: address %#x not %d-byte aligned", addr, dram.LineBytes) //zr:allow(hotpath) reject path only; a hit never reaches it
	}
	if addr >= uint64(a.cfg.Capacity()) {
		return Location{}, fmt.Errorf("memctrl: address %#x beyond capacity %#x", addr, a.cfg.Capacity()) //zr:allow(hotpath) reject path only; a hit never reaches it
	}
	lineIdx := addr / dram.LineBytes
	linesPerRow := uint64(a.cfg.LinesPerRow())
	rankRow := lineIdx / linesPerRow
	block := uint64(dram.LineChips)
	banks := uint64(a.cfg.Banks)
	blockIdx := rankRow / block
	return Location{
		Bank: int(blockIdx % banks),
		Row:  int((blockIdx/banks)*block + rankRow%block),
		Slot: int(lineIdx % linesPerRow),
	}, nil
}

// Address inverts Locate.
func (a AddressMap) Address(loc Location) uint64 {
	block := uint64(dram.LineChips)
	banks := uint64(a.cfg.Banks)
	blockIdx := (uint64(loc.Row)/block)*banks + uint64(loc.Bank)
	rankRow := blockIdx*block + uint64(loc.Row)%block
	return (rankRow*uint64(a.cfg.LinesPerRow()) + uint64(loc.Slot)) * dram.LineBytes
}

// RowBase returns the physical address of the first line of the rank-level
// row containing addr; useful for page/row-aligned fills.
func (a AddressMap) RowBase(addr uint64) uint64 {
	return addr / uint64(a.cfg.RowBytes) * uint64(a.cfg.RowBytes)
}
