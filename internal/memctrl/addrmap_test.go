package memctrl

import (
	"testing"
	"testing/quick"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/proptest"
)

// addrMapGeometries covers the mapping's corner cases: the default
// power-of-two layout plus non-power-of-two row counts, which arise when a
// capacity is split over 3, 5 or 7 ranks. RowsPerBank stays a multiple of
// LineChips (8) as the geometry validator requires, but is deliberately not a
// power of two, so the div/mod arithmetic in Locate/Address cannot be
// silently replaced by shifts and masks.
func addrMapGeometries(t *testing.T) []dram.Config {
	t.Helper()
	mk := func(rowsPerBank int) dram.Config {
		cfg := dram.DefaultConfig(8 << 20)
		cfg.RowsPerBank = rowsPerBank
		if err := cfg.Validate(); err != nil {
			t.Fatalf("geometry rowsPerBank=%d invalid: %v", rowsPerBank, err)
		}
		return cfg
	}
	return []dram.Config{
		mk(32), // power of two (the default shape)
		mk(24), // 3-rank split of a 9-unit capacity
		mk(40), // 5-rank split
		mk(56), // 7-rank split
		mk(8),  // minimum: exactly one stagger block per bank
	}
}

// TestAddressMapRoundTripExhaustive checks Address(Locate(a)) == a for
// every line of every geometry, and the inverse direction for every
// (bank,row,slot) triple — the two directions together prove the mapping
// is a bijection on the address space.
func TestAddressMapRoundTripExhaustive(t *testing.T) {
	for _, cfg := range addrMapGeometries(t) {
		a := NewAddressMap(cfg)
		seen := make(map[Location]bool)
		for addr := uint64(0); addr < uint64(cfg.Capacity()); addr += dram.LineBytes {
			loc, err := a.Locate(addr)
			if err != nil {
				t.Fatalf("rowsPerBank=%d: Locate(%#x): %v", cfg.RowsPerBank, addr, err)
			}
			if loc.Bank < 0 || loc.Bank >= cfg.Banks ||
				loc.Row < 0 || loc.Row >= cfg.RowsPerBank ||
				loc.Slot < 0 || loc.Slot >= cfg.LinesPerRow() {
				t.Fatalf("rowsPerBank=%d: Locate(%#x) out of range: %+v", cfg.RowsPerBank, addr, loc)
			}
			if seen[loc] {
				t.Fatalf("rowsPerBank=%d: location %+v mapped twice", cfg.RowsPerBank, loc)
			}
			seen[loc] = true
			if back := a.Address(loc); back != addr {
				t.Fatalf("rowsPerBank=%d: Address(Locate(%#x)) = %#x", cfg.RowsPerBank, addr, back)
			}
		}
		// Every location must have been hit exactly once (bijection).
		if want := cfg.Banks * cfg.RowsPerBank * cfg.LinesPerRow(); len(seen) != want {
			t.Fatalf("rowsPerBank=%d: covered %d locations, want %d", cfg.RowsPerBank, len(seen), want)
		}
	}
}

// TestAddressMapRoundTripProperty drives the inverse direction with
// randomized triples, as a guard independent of the exhaustive sweep's
// enumeration order.
func TestAddressMapRoundTripProperty(t *testing.T) {
	for _, cfg := range addrMapGeometries(t) {
		a := NewAddressMap(cfg)
		f := func(bank, row, slot uint16) bool {
			loc := Location{
				Bank: int(bank) % cfg.Banks,
				Row:  int(row) % cfg.RowsPerBank,
				Slot: int(slot) % cfg.LinesPerRow(),
			}
			addr := a.Address(loc)
			if addr >= uint64(cfg.Capacity()) {
				return false
			}
			got, err := a.Locate(addr)
			return err == nil && got == loc
		}
		if err := quick.Check(f, proptest.Config(t, 2000)); err != nil {
			t.Fatalf("rowsPerBank=%d: %v", cfg.RowsPerBank, err)
		}
	}
}

// TestAddressMapBoundaries pins the mapping's edges: the first and last
// line of the rank, the bank-interleave boundary (one stagger block), and
// rejection of misaligned and out-of-range addresses.
func TestAddressMapBoundaries(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20)
	a := NewAddressMap(cfg)

	first, err := a.Locate(0)
	if err != nil || first != (Location{}) {
		t.Fatalf("Locate(0) = %+v, %v; want zero location", first, err)
	}

	last := uint64(cfg.Capacity()) - dram.LineBytes
	loc, err := a.Locate(last)
	if err != nil {
		t.Fatalf("Locate(last): %v", err)
	}
	if loc.Bank != cfg.Banks-1 || loc.Row != cfg.RowsPerBank-1 || loc.Slot != cfg.LinesPerRow()-1 {
		t.Fatalf("last line mapped to %+v", loc)
	}

	// One stagger block (LineChips rows) of one bank holds contiguous memory;
	// the next block lands in the next bank at the same rows.
	blockBytes := uint64(dram.LineChips) * uint64(cfg.RowBytes)
	locA, _ := a.Locate(blockBytes - dram.LineBytes)
	locB, _ := a.Locate(blockBytes)
	if locA.Bank != 0 || locB.Bank != 1 || locB.Row != 0 || locB.Slot != 0 {
		t.Fatalf("stagger-block boundary: %+v then %+v", locA, locB)
	}

	if _, err := a.Locate(dram.LineBytes / 2); err == nil {
		t.Fatal("misaligned address accepted")
	}
	if _, err := a.Locate(uint64(cfg.Capacity())); err == nil {
		t.Fatal("out-of-range address accepted")
	}
}
