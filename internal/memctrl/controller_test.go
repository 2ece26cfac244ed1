package memctrl

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/refresh"
	"zerorefresh/internal/transform"
)

func testSetup() (*dram.Module, *refresh.Engine, *Controller) {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	mod := dram.New(cfg)
	eng := refresh.NewEngine(mod, refresh.Config{
		Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true,
	})
	pipe := transform.NewPipeline(transform.DefaultOptions(), transform.ExactTypes{Cfg: cfg})
	ctrl := NewController(mod, eng, pipe, transform.RotatedMapping{})
	return mod, eng, ctrl
}

func TestAddressMapRoundTrip(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20)
	amap := NewAddressMap(cfg)
	f := func(n uint32) bool {
		addr := (uint64(n) * dram.LineBytes) % uint64(cfg.Capacity())
		loc, err := amap.Locate(addr)
		if err != nil {
			return false
		}
		return amap.Address(loc) == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddressMapLayout(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20) // 4KB rows, 8 banks
	amap := NewAddressMap(cfg)
	// First row of bank 0.
	loc, err := amap.Locate(0)
	if err != nil || loc != (Location{0, 0, 0}) {
		t.Fatalf("Locate(0) = %+v, %v", loc, err)
	}
	// Second line of the same row.
	loc, _ = amap.Locate(64)
	if loc != (Location{0, 0, 1}) {
		t.Fatalf("Locate(64) = %+v", loc)
	}
	// The next row stays in bank 0: banks interleave at stagger-block
	// (8-row, 32 KB) granularity so a refresh diagonal covers
	// contiguous content.
	loc, _ = amap.Locate(4096)
	if loc != (Location{0, 1, 0}) {
		t.Fatalf("Locate(4096) = %+v", loc)
	}
	// The next 32 KB block goes to bank 1, reusing rows 0-7.
	loc, _ = amap.Locate(8 * 4096)
	if loc != (Location{1, 0, 0}) {
		t.Fatalf("Locate(32KB) = %+v", loc)
	}
	// After all banks, back to bank 0 rows 8-15.
	loc, _ = amap.Locate(64 * 4096)
	if loc != (Location{0, 8, 0}) {
		t.Fatalf("Locate(256KB) = %+v", loc)
	}
}

func TestAddressMapErrors(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20)
	amap := NewAddressMap(cfg)
	if _, err := amap.Locate(7); err == nil {
		t.Fatal("unaligned address accepted")
	}
	if _, err := amap.Locate(uint64(cfg.Capacity())); err == nil {
		t.Fatal("out-of-range address accepted")
	}
}

func TestControllerRoundTrip(t *testing.T) {
	_, _, ctrl := testSetup()
	cap := uint64(ctrl.Module().Config().Capacity())
	f := func(n uint32, data [64]byte) bool {
		addr := (uint64(n) * dram.LineBytes) % cap
		if err := ctrl.WriteLine(addr, data, 0); err != nil {
			return false
		}
		got, err := ctrl.ReadLine(addr, 0)
		return err == nil && got == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestControllerRoundTripAcrossCellTypeBoundary(t *testing.T) {
	mod, _, ctrl := testSetup()
	cfg := mod.Config()
	rng := rand.New(rand.NewSource(3))
	// Rows around the true/anti boundary (row CellGroupRows in every bank).
	for _, row := range []int{cfg.CellGroupRows - 1, cfg.CellGroupRows, cfg.CellGroupRows + 1} {
		for bank := 0; bank < cfg.Banks; bank++ {
			addr := ctrl.AddressMap().Address(Location{Bank: bank, Row: row, Slot: 5})
			var data [64]byte
			rng.Read(data[:])
			if err := ctrl.WriteLine(addr, data, 0); err != nil {
				t.Fatal(err)
			}
			got, err := ctrl.ReadLine(addr, 0)
			if err != nil || got != data {
				t.Fatalf("bank %d row %d: round trip failed", bank, row)
			}
		}
	}
}

// The headline mechanism end to end: a row full of value-local lines leaves
// 6 of the 8 word classes discharged, so 6 of its block's 8 refresh steps
// skip after the status is learned.
func TestValueLocalContentSkipsZeroClasses(t *testing.T) {
	mod, eng, ctrl := testSetup()
	cfg := mod.Config()
	tret := cfg.Timing.TRET

	// Fill all 64 lines of bank 0, row 0 with 8-bit-delta content.
	rng := rand.New(rand.NewSource(1))
	base := rng.Uint64()
	for slot := 0; slot < cfg.LinesPerRow(); slot++ {
		var l transform.Line
		l[0] = base
		for i := 1; i < 8; i++ {
			l[i] = base + uint64(rng.Intn(200)) - 100
		}
		b := l.Bytes()
		addr := ctrl.AddressMap().Address(Location{Bank: 0, Row: 0, Slot: slot})
		if err := ctrl.WriteLine(addr, b, 0); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunCycle(0) // learn
	st := eng.RunCycle(tret)
	// Only steps of classes 0 (base) and 1 (bit-plane head) refresh: 2
	// steps of block 0 in bank 0.
	if st.Refreshed != 2 {
		t.Fatalf("Refreshed = %d, want 2 (base + delta head)", st.Refreshed)
	}
	if st.Skipped != st.Steps-2 {
		t.Fatalf("Skipped = %d, want %d", st.Skipped, st.Steps-2)
	}
	// The data survives arbitrary further windows with those skips.
	for i := 2; i < 6; i++ {
		eng.RunCycle(dram.Time(i) * tret)
	}
	if mod.Stats().DecayEvents != 0 {
		t.Fatal("skipping corrupted data")
	}
	got, err := ctrl.ReadLine(ctrl.AddressMap().Address(Location{Bank: 0, Row: 0, Slot: 0}), 6*tret)
	if err != nil {
		t.Fatal(err)
	}
	want := transform.LineFromBytes(&got)
	if want[0] != base {
		t.Fatalf("base word corrupted: %#x != %#x", want[0], base)
	}
}

func TestZeroRowFullySkips(t *testing.T) {
	mod, eng, ctrl := testSetup()
	cfg := mod.Config()
	tret := cfg.Timing.TRET

	// Charge a whole row with random data, then cleanse it as the OS
	// would on page free.
	rng := rand.New(rand.NewSource(2))
	for slot := 0; slot < cfg.LinesPerRow(); slot++ {
		var data [64]byte
		rng.Read(data[:])
		addr := ctrl.AddressMap().Address(Location{Bank: 3, Row: 40, Slot: slot})
		if err := ctrl.WriteLine(addr, data, 0); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunCycle(0)
	if err := ctrl.WriteRow(ctrl.AddressMap().Address(Location{Bank: 3, Row: 40, Slot: 0}), clearLines, tret); err != nil {
		t.Fatal(err)
	}
	eng.RunCycle(tret) // full refresh of the written set; learns zeros
	st := eng.RunCycle(2 * tret)
	if st.Refreshed != 0 {
		t.Fatalf("cleansed row still refreshing: %d steps", st.Refreshed)
	}
	// And it reads back as zeros much later.
	got, err := ctrl.ReadLine(ctrl.AddressMap().Address(Location{Bank: 3, Row: 40, Slot: 7}), 10*tret)
	if err != nil {
		t.Fatal(err)
	}
	if got != ([64]byte{}) {
		t.Fatal("cleansed row does not read as zeros")
	}
}

// The ablation motivating Figure 13: under the conventional byte-scatter
// burst mapping the same value-local content charges every chip, so nothing
// skips.
func TestByteScatterMappingDefeatsSkipping(t *testing.T) {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	mod := dram.New(cfg)
	eng := refresh.NewEngine(mod, refresh.Config{Skip: true, RowsPerAR: 32, Stagger: true, StatusInDRAM: true})
	pipe := transform.NewPipeline(transform.DefaultOptions(), transform.ExactTypes{Cfg: cfg})
	ctrl := NewController(mod, eng, pipe, transform.ByteScatterMapping{})

	rng := rand.New(rand.NewSource(1))
	base := rng.Uint64() | (1 << 60) // ensure non-zero bytes in the base
	for slot := 0; slot < cfg.LinesPerRow(); slot++ {
		var l transform.Line
		l[0] = base
		for i := 1; i < 8; i++ {
			l[i] = base + uint64(rng.Intn(200)) - 100
		}
		b := l.Bytes()
		addr := ctrl.AddressMap().Address(Location{Bank: 0, Row: 0, Slot: slot})
		if err := ctrl.WriteLine(addr, b, 0); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunCycle(0)
	st := eng.RunCycle(cfg.Timing.TRET)
	// All 8 steps of block 0 stay charged.
	if st.Refreshed != 8 {
		t.Fatalf("Refreshed = %d, want 8 (no skip under byte scatter)", st.Refreshed)
	}
	// Data must still round trip: the mapping is lossless either way.
	got, err := ctrl.ReadLine(ctrl.AddressMap().Address(Location{Bank: 0, Row: 0, Slot: 0}), cfg.Timing.TRET)
	if err != nil {
		t.Fatal(err)
	}
	if transform.LineFromBytes(&got)[0] != base {
		t.Fatal("byte-scatter round trip failed")
	}
}

func TestControllerCounters(t *testing.T) {
	_, _, ctrl := testSetup()
	var d [64]byte
	if err := ctrl.WriteLine(0, d, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.ReadLine(0, 0); err != nil {
		t.Fatal(err)
	}
	if ctrl.LinesWritten() != 1 || ctrl.LinesRead() != 1 {
		t.Fatalf("counters = %d written, %d read", ctrl.LinesWritten(), ctrl.LinesRead())
	}
}
