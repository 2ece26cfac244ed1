package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"zerorefresh/internal/workload"
)

// quickOptions keeps unit-test runs fast; zrsim -exp all runs the full
// defaults.
func quickOptions() Options {
	return Options{Capacity: 4 << 20, Windows: 2, Warmup: 1, Seed: 1}
}

func profiles(names ...string) []workload.Profile {
	out := make([]workload.Profile, 0, len(names))
	for _, n := range names {
		p, ok := workload.ByName(n)
		if !ok {
			panic("unknown benchmark " + n)
		}
		out = append(out, p)
	}
	return out
}

func TestRunScenarioBasics(t *testing.T) {
	p, _ := workload.ByName("sphinx3")
	res, err := RunScenario(quickOptions(), p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Decays != 0 {
		t.Fatal("retention failure")
	}
	if res.Reduction < 0.3 || res.Reduction > 0.75 {
		t.Fatalf("sphinx3 reduction = %.3f, want high", res.Reduction)
	}
	if res.NormEnergy <= res.NormRefresh-0.05 || res.NormEnergy > res.NormRefresh+0.2 {
		t.Fatalf("energy %.3f should track refresh %.3f plus overheads", res.NormEnergy, res.NormRefresh)
	}
	if res.EBDIOps <= 0 {
		t.Fatal("EBDI ops not accounted")
	}
}

func TestRunScenarioAllocationMonotone(t *testing.T) {
	p, _ := workload.ByName("gcc")
	o := quickOptions()
	prev := -1.0
	for _, frac := range []float64{0.25, 0.5, 1.0} {
		res, err := RunScenario(o, p, frac)
		if err != nil {
			t.Fatal(err)
		}
		if res.NormRefresh <= prev {
			t.Fatalf("normalized refresh must grow with allocation: %.3f after %.3f", res.NormRefresh, prev)
		}
		prev = res.NormRefresh
	}
}

func TestRunScenarioDeterminism(t *testing.T) {
	p, _ := workload.ByName("mcf")
	a, err := RunScenario(quickOptions(), p, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(quickOptions(), p, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if a.NormRefresh != b.NormRefresh || a.NormEnergy != b.NormEnergy {
		t.Fatal("scenario runs are not deterministic")
	}
}

func TestScenariosMatchTableI(t *testing.T) {
	scs := Scenarios()
	if len(scs) != 4 {
		t.Fatalf("want 4 scenarios, got %d", len(scs))
	}
	wants := []float64{1.0, 0.88, 0.70, 0.28}
	for i, sc := range scs {
		if sc.AllocFrac != wants[i] {
			t.Fatalf("scenario %d fraction %v, want %v", i, sc.AllocFrac, wants[i])
		}
	}
}

func TestFig14SubsetShape(t *testing.T) {
	o := quickOptions()
	o.Benchmarks = profiles("sphinx3", "omnetpp")
	tab, err := RunFig14(o)
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := tab.Find("sphinx3")
	lo, _ := tab.Find("omnetpp")
	// Value ordering (sphinx skips much more) in every scenario.
	for i := range hi.Values {
		if hi.Values[i] >= lo.Values[i] {
			t.Fatalf("scenario %d: sphinx3 %.3f should be below omnetpp %.3f", i, hi.Values[i], lo.Values[i])
		}
	}
	// Allocation ordering within each benchmark.
	for _, r := range tab.Rows {
		for i := 1; i < len(r.Values); i++ {
			if r.Values[i] >= r.Values[i-1]+1e-9 {
				t.Fatalf("%s: normalized refresh should fall with idle memory: %v", r.Name, r.Values)
			}
		}
	}
}

func TestFig15EnergyAboveRefresh(t *testing.T) {
	o := quickOptions()
	o.Benchmarks = profiles("gcc")
	t14, err := RunFig14(o)
	if err != nil {
		t.Fatal(err)
	}
	t15, err := RunFig15(o)
	if err != nil {
		t.Fatal(err)
	}
	r14, _ := t14.Find("gcc")
	r15, _ := t15.Find("gcc")
	for i := range r14.Values {
		// Energy includes overheads, so it sits slightly above the
		// pure refresh ratio but must track it.
		if r15.Values[i] < r14.Values[i]-0.02 || r15.Values[i] > r14.Values[i]+0.15 {
			t.Fatalf("scenario %d: energy %.3f vs refresh %.3f", i, r15.Values[i], r14.Values[i])
		}
	}
}

func TestFig16TemperatureDirection(t *testing.T) {
	o := quickOptions()
	o.Benchmarks = profiles("gcc", "bwaves")
	tab, err := RunFig16(o)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := tab.Find("MEAN")
	if m.Values[1] <= m.Values[0] {
		t.Fatalf("64ms mode must refresh more: 32ms %.3f, 64ms %.3f", m.Values[0], m.Values[1])
	}
}

func TestFig18RowSizeDirection(t *testing.T) {
	o := quickOptions()
	o.Benchmarks = profiles("gcc")
	tab, err := RunFig18(o)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := tab.Find("gcc")
	if !(r.Values[0] < r.Values[1] && r.Values[1] < r.Values[2]) {
		t.Fatalf("normalized refresh should grow with row size: %v", r.Values)
	}
}

func TestFig19Shape(t *testing.T) {
	o := quickOptions()
	tab, err := RunFig19(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 capacities, got %d", len(tab.Rows))
	}
	// Smart Refresh degrades monotonically with capacity; ZERO-REFRESH
	// does not degrade.
	for i := 1; i < len(tab.Rows); i++ {
		if tab.Rows[i].Values[0] <= tab.Rows[i-1].Values[0] {
			t.Fatalf("Smart should degrade with capacity: %v", tab.Rows)
		}
		if tab.Rows[i].Values[1] > tab.Rows[i-1].Values[1]+0.02 {
			t.Fatalf("ZERO-REFRESH should not degrade with capacity: %v", tab.Rows)
		}
	}
	// Paper endpoints: Smart 0.526 at 4GB, 0.941 at 32GB.
	if math.Abs(tab.Rows[0].Values[0]-0.526) > 0.08 {
		t.Fatalf("Smart@4GB = %.3f, want ~0.526", tab.Rows[0].Values[0])
	}
	if math.Abs(tab.Rows[3].Values[0]-0.941) > 0.05 {
		t.Fatalf("Smart@32GB = %.3f, want ~0.941", tab.Rows[3].Values[0])
	}
}

func TestRunIPCShape(t *testing.T) {
	o := Options{Capacity: 4 << 20, Seed: 1}
	hi, err := RunIPC(o, profiles("sphinx3")[0])
	if err != nil {
		t.Fatal(err)
	}
	lo, err := RunIPC(o, profiles("omnetpp")[0])
	if err != nil {
		t.Fatal(err)
	}
	if hi.Speedup <= 1.0 || hi.Speedup > 1.25 {
		t.Fatalf("sphinx3 speedup %.4f out of plausible range", hi.Speedup)
	}
	if lo.Speedup < 0.99 {
		t.Fatalf("omnetpp slowed down: %.4f", lo.Speedup)
	}
	if hi.Speedup <= lo.Speedup {
		t.Fatalf("high-reduction benchmark should gain more: %.4f vs %.4f", hi.Speedup, lo.Speedup)
	}
	if hi.ZeroLatN >= hi.BaselineLatN {
		t.Fatal("ZERO-REFRESH should lower memory latency")
	}
}

func TestTable1(t *testing.T) {
	tab := RunTable1(1, 5000)
	for _, r := range tab.Rows {
		if math.Abs(r.Values[0]-r.Values[1]) > 0.03 {
			t.Fatalf("%s measured %.3f vs paper %.3f", r.Name, r.Values[0], r.Values[1])
		}
	}
}

func TestFig4Shape(t *testing.T) {
	tab := RunFig4()
	prev := 0.0
	for _, r := range tab.Rows {
		if r.Values[1] <= r.Values[0] {
			t.Fatalf("%s: extended share must exceed normal", r.Name)
		}
		if r.Values[1] <= prev {
			t.Fatal("share must grow with density")
		}
		prev = r.Values[1]
	}
	r16, _ := tab.Find("16Gb")
	if r16.Values[1] <= 0.5 {
		t.Fatalf("16Gb/32ms share %.3f, want >0.5", r16.Values[1])
	}
}

func TestFig5Monotone(t *testing.T) {
	tab := RunFig5()
	for col := 0; col < 3; col++ {
		prev := -1.0
		for _, r := range tab.Rows {
			if r.Values[col] < prev-1e-12 {
				t.Fatalf("CDF column %d not monotone", col)
			}
			prev = r.Values[col]
		}
	}
}

func TestFig6Averages(t *testing.T) {
	o := Options{Capacity: 8 << 20, Seed: 1}
	tab := RunFig6(o)
	m, _ := tab.Find("MEAN")
	if m.Values[0] < 0.01 || m.Values[0] > 0.06 {
		t.Fatalf("zero-1KB mean %.3f, want ~0.023", m.Values[0])
	}
	if m.Values[1] < 0.33 || m.Values[1] > 0.55 {
		t.Fatalf("zero-byte mean %.3f, want ~0.43", m.Values[1])
	}
}

// TestTable2Renders pins every row of Table II: the values the paper's
// configuration table lists, in order.
func TestTable2Renders(t *testing.T) {
	want := []Row{
		{"cores", []float64{4}}, {"core GHz", []float64{4}},
		{"L1-D KB", []float64{32}}, {"L1-D ways", []float64{8}},
		{"L2 MB per core", []float64{2}}, {"L2 ways", []float64{32}},
		{"memory GB", []float64{32}}, {"chips", []float64{8}}, {"banks", []float64{8}},
		{"row buffer KB", []float64{4}},
		{"tRAS ns", []float64{28}}, {"tRCD ns", []float64{11}}, {"tRRD ns", []float64{5}},
		{"tFAW ns", []float64{24}}, {"tRFC ns", []float64{28}}, {"tREFI ns", []float64{3906}},
		{"tRET extended ms", []float64{32}}, {"tRET normal ms", []float64{64}},
		{"ARs per window", []float64{8192}},
		{"IDD0 mA", []float64{23}}, {"IDD1 mA", []float64{30}}, {"IDD2P mA", []float64{7}},
		{"IDD2N mA", []float64{12}}, {"IDD3 mA", []float64{8}}, {"IDD4W mA", []float64{58}},
		{"IDD4R mA", []float64{60}}, {"IDD5 mA", []float64{120}}, {"IDD6 mA", []float64{8}},
		{"IDD7 mA", []float64{105}},
	}
	tab := RunTable2()
	if tab.Title != "Table II: simulated system configuration" || !reflect.DeepEqual(tab.Rows, want) {
		t.Fatalf("Table II %q rows:\n%v\nwant:\n%v", tab.Title, tab.Rows, want)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	tab.AddRow("x", 1, 2)
	tab.AddRow("y", 3, 4)
	tab.AddMeanRow()
	m, ok := tab.Find("MEAN")
	if !ok || m.Values[0] != 2 || m.Values[1] != 3 {
		t.Fatalf("mean row %v", m)
	}
	out := tab.String()
	for _, want := range []string{"== T ==", "x", "MEAN", "2.000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	if _, ok := tab.Find("zzz"); ok {
		t.Fatal("phantom row found")
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Capacity != 32<<20 || o.RowBytes != 4096 || o.Windows != 8 || o.Warmup != 1 || o.Seed != 1 {
		t.Fatalf("unexpected defaults: %+v", o)
	}
	if len(o.Benchmarks) != 23 {
		t.Fatalf("default suite size %d", len(o.Benchmarks))
	}
}

func TestComparisonShape(t *testing.T) {
	o := quickOptions()
	tab, err := RunComparison(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 capacities, got %d", len(tab.Rows))
	}
	for i, r := range tab.Rows {
		smart, raidr, zero := r.Values[0], r.Values[1], r.Values[2]
		// RAIDR's schedule is capacity-independent (~0.26 + VRT noise).
		if raidr < 0.2 || raidr > 0.4 {
			t.Fatalf("row %d: RAIDR normalized %.3f out of range", i, raidr)
		}
		// At large capacity, both static-content approaches beat Smart.
		if i == len(tab.Rows)-1 && (smart < zero || smart < raidr) {
			t.Fatalf("Smart should scale worst: %.3f vs %.3f / %.3f", smart, raidr, zero)
		}
	}
}

func TestCmdLevelValidation(t *testing.T) {
	o := Options{Capacity: 4 << 20, Seed: 1}
	hi, err := RunCmdLevel(o, profiles("sphinx3")[0])
	if err != nil {
		t.Fatal(err)
	}
	if hi.ZeroLatency >= hi.ConvLatency {
		t.Fatalf("command-level ZR latency %.1f should beat conventional %.1f",
			hi.ZeroLatency, hi.ConvLatency)
	}
	// Refresh-induced closures are a small share of row churn at this
	// locality, but skipping must never make the hit rate worse.
	if hi.ZeroHitRate < hi.ConvHitRate-0.002 {
		t.Fatalf("skipping degraded row hits: %.4f vs %.4f", hi.ZeroHitRate, hi.ConvHitRate)
	}
	// With 100%-allocated memory almost every AR set retains charged
	// base/delta classes, so commands rarely vanish outright — they
	// shrink. The command count must not grow, and the latency win
	// above is the real signal.
	if hi.ZeroRefreshes > hi.ConvRefreshes {
		t.Fatal("ZR executed more refresh commands than conventional")
	}
	// The emergent hit rate should resemble the profile's locality.
	p := profiles("sphinx3")[0]
	if hi.ConvHitRate > p.RowHitRate || hi.ConvHitRate < p.RowHitRate-0.35 {
		t.Fatalf("emergent hit rate %.3f implausible vs locality %.3f", hi.ConvHitRate, p.RowHitRate)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a,b", "c"}}
	tab.AddRow(`na"me`, 0.5, 2)
	got := tab.CSV()
	want := "name,\"a,b\",c\n\"na\"\"me\",0.5,2\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestPowerBreakdownShape(t *testing.T) {
	o := quickOptions()
	o.Benchmarks = profiles("sphinx3", "omnetpp")
	tab, err := RunPowerBreakdown(o)
	if err != nil {
		t.Fatal(err)
	}
	hi, _ := tab.Find("sphinx3")
	lo, _ := tab.Find("omnetpp")
	// ZR refresh power must sit below conventional, more so for sphinx3.
	for _, r := range []Row{hi, lo} {
		if r.Values[3] >= r.Values[2] {
			t.Fatalf("%s: ZR refresh power %.3f not below conventional %.3f", r.Name, r.Values[3], r.Values[2])
		}
		if r.Values[4] <= 0 {
			t.Fatalf("%s: overhead power missing", r.Name)
		}
	}
	hiSave := hi.Values[2] - hi.Values[3]
	loSave := lo.Values[2] - lo.Values[3]
	if hiSave <= loSave {
		t.Fatal("sphinx3 should save more refresh power than omnetpp")
	}
	// Overheads are tiny relative to the refresh savings (the paper's
	// energy argument).
	if hi.Values[4] > hiSave/5 {
		t.Fatalf("overhead %.3fW not small vs savings %.3fW", hi.Values[4], hiSave)
	}
}
