package workload

import (
	"math"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/metrics"
)

func TestMeasuredContentMatchesAnalytic(t *testing.T) {
	for _, name := range []string{"gemsFDTD", "omnetpp", "tpch-q1"} {
		p, _ := ByName(name)
		st := p.MeasureContent(3, 3000)
		want := p.ExpectedZeroByteFraction()
		if got := st.ZeroByteFraction(); math.Abs(got-want) > 0.05 {
			t.Errorf("%s: measured zero bytes %.3f, analytic %.3f", name, got, want)
		}
		// 1 KB zero blocks come (almost) only from zero pages.
		zmix := p.Mix[PageZero]
		if got := st.ZeroBlockFraction(); math.Abs(got-zmix) > 0.03 {
			t.Errorf("%s: zero 1K blocks %.3f, want ~%.3f", name, got, zmix)
		}
	}
}

func TestSuiteAveragesMatchFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("suite sweep")
	}
	// Figure 6: "only an average of 2.3% of 1KB blocks consists of
	// consecutive zeros. However, if the block size reduces to 1 byte,
	// 43% of the memory contains zeros."
	_, avgByte, avgBlock := SuiteContentStats(1, 800)
	if avgByte < 0.33 || avgByte > 0.53 {
		t.Errorf("suite zero-byte average %.3f, want ~0.43", avgByte)
	}
	if avgBlock < 0.01 || avgBlock > 0.05 {
		t.Errorf("suite zero-1KB average %.3f, want ~0.023", avgBlock)
	}
}

func TestMeasureContentCountsBlocks(t *testing.T) {
	p, _ := ByName("mcf")
	st := p.MeasureContent(5, 10)
	if st.Pages != 10 {
		t.Fatalf("Pages = %d", st.Pages)
	}
	if st.Bytes != 10*4096 {
		t.Fatalf("Bytes = %d", st.Bytes)
	}
	if st.Blocks1K != 40 {
		t.Fatalf("Blocks1K = %d", st.Blocks1K)
	}
}

func TestRequestRateScalesWithMPKI(t *testing.T) {
	lo, _ := ByName("gobmk")   // MPKI 1.0
	hi, _ := ByName("mcf")     // MPKI 55
	rl := lo.RequestRate(2, 4) // ipc 2, 4 GHz
	rh := hi.RequestRate(2, 4)
	if rh <= rl {
		t.Fatal("mcf must generate more traffic than gobmk")
	}
	// gobmk: 8 instr/ns * 1.0/1000 misses = 0.008 fills/ns, /(1-0.3).
	want := 8.0 * 1.0 / 1000 / 0.7
	if math.Abs(rl-want) > 1e-12 {
		t.Fatalf("rate = %v, want %v", rl, want)
	}
}

func TestWindowFootprintScalesWithWindow(t *testing.T) {
	p, _ := ByName("gcc")
	w32 := p.WrittenRowsPerWindow(4096, dram.TRETExtended)
	w64 := p.WrittenRowsPerWindow(4096, dram.TRETNormal)
	if w64 < 2*w32-1 || w64 > 2*w32+2 { // doubling modulo truncation
		t.Fatalf("64ms footprint %d, want about double of %d", w64, w32)
	}
	if p.TouchedRowsPerWindow(4096, dram.TRETExtended) < w32 {
		t.Fatal("touched rows must be at least written rows")
	}
}

func TestPickRows(t *testing.T) {
	rows := PickRows(1, 0, 100, 20)
	if len(rows) != 20 {
		t.Fatalf("len = %d", len(rows))
	}
	seen := map[int]bool{}
	for _, r := range rows {
		if r < 0 || r >= 100 {
			t.Fatalf("row %d out of range", r)
		}
		if seen[r] {
			t.Fatal("duplicate row")
		}
		seen[r] = true
	}
	// Saturation: asking for more than the working set returns it all.
	all := PickRows(1, 0, 10, 50)
	if len(all) != 10 {
		t.Fatalf("saturated len = %d", len(all))
	}
	// Different windows give different samples.
	other := PickRows(1, 1, 100, 20)
	same := true
	for i := range rows {
		if rows[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("window samples identical")
	}
}

func TestSplitMixDeterminism(t *testing.T) {
	a, b := NewSplitMix(5), NewSplitMix(5)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("splitmix not deterministic")
		}
	}
	if Hash(1, 2) == Hash(2, 1) {
		t.Fatal("hash should be order sensitive")
	}
	if HashString("abc") == HashString("abd") {
		t.Fatal("string hash collision on near strings")
	}
}

func TestContentStatsRecord(t *testing.T) {
	p, ok := ByName("mcf")
	if !ok {
		t.Fatal("mcf profile missing")
	}
	st := p.MeasureContent(1, 16)
	reg := metrics.NewRegistry()
	st.Record(reg)
	snap := reg.Snapshot()
	if got := snap.Counter("workload.bytes"); got != st.Bytes {
		t.Fatalf("workload.bytes = %d, want %d", got, st.Bytes)
	}
	if got := snap.Counter("workload.zero_bytes"); got != st.ZeroBytes {
		t.Fatalf("workload.zero_bytes = %d, want %d", got, st.ZeroBytes)
	}
	frac, ok := snap.Get("workload.zero_byte_frac")
	if !ok || frac.Float != st.ZeroByteFraction() {
		t.Fatalf("workload.zero_byte_frac = %v, want %v", frac.Float, st.ZeroByteFraction())
	}
	// Recording again accumulates counters and refreshes the fractions.
	st.Record(reg)
	snap = reg.Snapshot()
	if got := snap.Counter("workload.bytes"); got != 2*st.Bytes {
		t.Fatalf("after second record, workload.bytes = %d, want %d", got, 2*st.Bytes)
	}
	frac, _ = snap.Get("workload.zero_byte_frac")
	if frac.Float != st.ZeroByteFraction() {
		t.Fatal("fraction gauge should be unchanged by doubling both numerator and denominator")
	}
}
