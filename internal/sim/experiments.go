package sim

import (
	"fmt"

	"zerorefresh/internal/cpu"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/energy"
	"zerorefresh/internal/ostrace"
	"zerorefresh/internal/workload"
)

// RunRefreshMatrix runs every benchmark under every scenario once and
// returns the results indexed [benchmark][scenario]; Figures 14 and 15
// project it into their respective metrics. A benchmark is one unit: it
// populates memory once and measures the scenarios on clones as the
// allocation grows (see runScenarios).
func RunRefreshMatrix(o Options) (map[string]map[string]ScenarioResult, error) {
	o = o.withDefaults()
	scs := Scenarios()
	fracs := make([]float64, len(scs))
	for i, sc := range scs {
		fracs[i] = sc.AllocFrac
	}
	results := make([][]ScenarioResult, len(o.Benchmarks))
	err := forEach(o, len(o.Benchmarks), func(i int, o Options) error {
		res, err := runScenarios(o, o.Benchmarks[i], fracs)
		if err != nil {
			return fmt.Errorf("%s: %w", o.Benchmarks[i].Name, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[string]ScenarioResult, len(o.Benchmarks))
	for i, prof := range o.Benchmarks {
		out[prof.Name] = make(map[string]ScenarioResult, len(scs))
		for j, sc := range scs {
			out[prof.Name][sc.Name] = results[i][j]
		}
	}
	return out, nil
}

func matrixTable(o Options, title, note string, metric func(ScenarioResult) float64) (*Table, error) {
	o = o.withDefaults()
	m, err := RunRefreshMatrix(o)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, Note: note}
	for _, sc := range Scenarios() {
		t.Columns = append(t.Columns, sc.Name)
	}
	for _, prof := range o.Benchmarks {
		vals := make([]float64, 0, 4)
		for _, sc := range Scenarios() {
			vals = append(vals, metric(m[prof.Name][sc.Name]))
		}
		t.AddRow(prof.Name, vals...)
	}
	t.AddMeanRow()
	return t, nil
}

// RunFig14 regenerates Figure 14: refresh operations normalized to
// conventional refresh under the four allocation scenarios. The paper
// reports mean normalized refresh of ~0.63 (37.1% reduction) at 100%
// allocation, falling to ~0.54/0.43/0.17 for the trace scenarios.
func RunFig14(o Options) (*Table, error) {
	return matrixTable(o, "Figure 14: normalized refresh operations",
		"paper means: 0.629 / 0.54 / 0.43 / 0.17",
		func(r ScenarioResult) float64 { return r.NormRefresh })
}

// RunFig15 regenerates Figure 15: refresh energy normalized to
// conventional refresh, with all ZERO-REFRESH overheads (EBDI, access-bit
// SRAM, status-table I/O) included. Paper means: 0.635 / 0.56 / 0.45 /
// 0.18.
func RunFig15(o Options) (*Table, error) {
	return matrixTable(o, "Figure 15: normalized refresh energy",
		"paper means: 0.635 / 0.56 / 0.45 / 0.18 (overheads included)",
		func(r ScenarioResult) float64 { return r.NormEnergy })
}

// RunFig16 regenerates Figure 16: normalized refresh at 100% allocation in
// normal (64 ms) versus extended (32 ms) temperature mode. The longer
// window accumulates twice the written footprint, costing on average ~4.4%
// reduction in the paper.
func RunFig16(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 16: normalized refresh, normal vs extended temperature (100% alloc)",
		Columns: []string{"32ms (ext)", "64ms (normal)"},
		Note:    "paper: 64 ms mode loses ~4.4% reduction on average",
	}
	rows := make([][]float64, len(o.Benchmarks))
	err := forEach(o, len(o.Benchmarks), func(i int, o Options) error {
		ext, err := RunScenario(o, o.Benchmarks[i], 1.0)
		if err != nil {
			return err
		}
		o.edit = normalTemperature
		norm, err := RunScenario(o, o.Benchmarks[i], 1.0)
		if err != nil {
			return err
		}
		rows[i] = []float64{ext.NormRefresh, norm.NormRefresh}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, prof := range o.Benchmarks {
		t.AddRow(prof.Name, rows[i]...)
	}
	t.AddMeanRow()
	return t, nil
}

// RunFig18 regenerates Figure 18: refresh reduction sensitivity to the row
// buffer size (2 KB / 4 KB / 8 KB, 100% allocated). Paper: 46.3% / 37.1% /
// 33.9% reduction.
func RunFig18(o Options) (*Table, error) {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 18: normalized refresh vs row buffer size (100% alloc)",
		Columns: []string{"2KB", "4KB", "8KB"},
		Note:    "paper means: 0.537 / 0.629 / 0.661 normalized (46.3/37.1/33.9% reduction)",
	}
	rowSizes := []int{2048, 4096, 8192}
	rows := make([][]float64, len(o.Benchmarks))
	err := forEach(o, len(o.Benchmarks), func(i int, o Options) error {
		vals := make([]float64, 0, len(rowSizes))
		for _, rb := range rowSizes {
			oo := o
			oo.RowBytes = rb
			res, err := RunScenario(oo, o.Benchmarks[i], 1.0)
			if err != nil {
				return err
			}
			vals = append(vals, res.NormRefresh)
		}
		rows[i] = vals
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, prof := range o.Benchmarks {
		t.AddRow(prof.Name, rows[i]...)
	}
	t.AddMeanRow()
	return t, nil
}

// RunFig19 regenerates Figure 19: normalized refresh of Smart Refresh vs
// ZERO-REFRESH as capacity grows, for mcf with the whole memory filled
// with benchmark data (no free-page credit). The paper reports Smart
// Refresh degrading from 52.6% to 94.1% normalized refresh from 4 GB to
// 32 GB while ZERO-REFRESH stays nearly constant.
//
// Capacities are simulated at 1/1024 scale: 4..32 MB stand for 4..32 GB,
// with mcf's touched-row footprint held at its absolute (scaled) value.
func RunFig19(o Options) (*Table, error) {
	o = o.withDefaults()
	prof, ok := workload.ByName("mcf")
	if !ok {
		return nil, fmt.Errorf("sim: mcf profile missing")
	}
	t := &Table{
		Title:   "Figure 19: Smart Refresh vs ZERO-REFRESH scaling (mcf)",
		Columns: []string{"Smart", "ZERO-REFRESH"},
		Note:    "paper: Smart 0.526 -> 0.941 from 4GB to 32GB; ZERO-REFRESH ~flat",
	}
	for _, cap := range []int64{4 << 20, 8 << 20, 16 << 20, 32 << 20} {
		oo := o
		oo.Capacity = cap

		smart := smartNorm(oo, prof, int(cap/8/int64(oo.RowBytes)))
		zr, err := RunScenario(oo, prof, 1.0)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%dGB", cap>>20), smart, zr.NormRefresh)
	}
	return t, nil
}

// RunTable1 regenerates Table I: the average allocated-memory fraction of
// the three datacenter traces, measured from the trace models.
func RunTable1(seed uint64, samples int) *Table {
	if samples <= 0 {
		samples = 20000
	}
	t := &Table{
		Title:   "Table I: average allocated memory of three traces",
		Columns: []string{"measured", "paper"},
	}
	for _, m := range ostrace.Traces() {
		t.AddRow(m.Name, m.EmpiricalMean(seed, samples), m.TableIMean)
	}
	return t
}

// RunFig4 regenerates Figure 4: the refresh share of DRAM device power as
// density grows, for the normal (64 ms) and extended (32 ms) temperature
// ranges, with 8% read / 2% write duty as in the paper's analysis.
func RunFig4() *Table {
	p := energy.TableII()
	t := &Table{
		Title:   "Figure 4: refresh share of device power vs density",
		Columns: []string{"64ms share", "32ms share"},
		Note:    "paper: >50% of device power at 16Gb with 32ms retention",
	}
	for _, gb := range []int{1, 2, 4, 8, 16, 32} {
		n, _, _ := energy.RefreshPowerShare(p, gb, dram.TRETNormal, 0.08, 0.02)
		e, _, _ := energy.RefreshPowerShare(p, gb, dram.TRETExtended, 0.08, 0.02)
		t.AddRow(fmt.Sprintf("%dGb", gb), n, e)
	}
	return t
}

// RunFig5 regenerates Figure 5: the cumulative distribution of memory
// utilization for the three traces, tabulated at 5% steps.
func RunFig5() *Table {
	t := &Table{
		Title:   "Figure 5: memory utilization CDFs",
		Columns: []string{"google", "alibaba", "bitbrains"},
	}
	for i := 0; i <= 20; i++ {
		x := float64(i) / 20
		t.AddRow(fmt.Sprintf("%.2f", x),
			ostrace.Google.CDF(x), ostrace.Alibaba.CDF(x), ostrace.Bitbrains.CDF(x))
	}
	return t
}

// RunFig6 regenerates Figure 6: the portion of zero content at 1 KB and
// 1 byte granularity for every benchmark's (touched) memory image.
func RunFig6(o Options) *Table {
	o = o.withDefaults()
	t := &Table{
		Title:   "Figure 6: zero content at 1KB and 1B granularity",
		Columns: []string{"1KB blocks", "bytes"},
		Note:    "paper averages: 0.023 and 0.43",
	}
	pages := int(o.Capacity / 4096 / 4)
	if pages > 4096 {
		pages = 4096
	}
	for _, prof := range o.Benchmarks {
		st := prof.MeasureContent(o.Seed, pages)
		t.AddRow(prof.Name, st.ZeroBlockFraction(), st.ZeroByteFraction())
	}
	t.AddMeanRow()
	return t
}

// Table II's private caches per core: a 32 KB, 8-way L1 data cache and a
// 2 MB, 32-way L2, the last-level cache. Table II prints them; no
// experiment simulates a cache, since every figure writes whole pages and
// Figure 17 models the core's misses analytically.
const (
	l1DBytes = 32 << 10
	l1DWays  = 8
	l2Bytes  = 2 << 20
	l2Ways   = 32
)

// RunTable2 renders the simulated system configuration (Table II): the
// cores and caches, the rank geometry at paper scale, the DDR4 timings
// with the retention windows, and the IDD currents of the power model.
func RunTable2() *Table {
	tm := dram.DefaultTiming()
	geo := dram.DefaultConfig(defaultCapacity)
	idd := energy.TableII()
	t := &Table{
		Title:   "Table II: simulated system configuration",
		Columns: []string{"value"},
		Note: "out-of-order x86 cores modeled as base CPI + MLP-overlapped stalls; " +
			"the 32 GB rank is simulated at 1/1024 scale; 64 B cache lines",
	}
	t.AddRow("cores", fig17Cores)
	t.AddRow("core GHz", cpu.DefaultCoreConfig().FreqGHz)
	t.AddRow("L1-D KB", l1DBytes>>10)
	t.AddRow("L1-D ways", l1DWays)
	t.AddRow("L2 MB per core", l2Bytes>>20)
	t.AddRow("L2 ways", l2Ways)
	t.AddRow("memory GB", defaultCapacity>>20) // MB simulated, GB modeled
	t.AddRow("chips", dram.LineChips)
	t.AddRow("banks", float64(geo.Banks))
	t.AddRow("row buffer KB", float64(geo.RowBytes>>10))
	t.AddRow("tRAS ns", float64(tm.TRAS))
	t.AddRow("tRCD ns", float64(tm.TRCD))
	t.AddRow("tRRD ns", float64(tm.TRRD))
	t.AddRow("tFAW ns", float64(tm.TFAW))
	t.AddRow("tRFC ns", float64(tm.TRFC))
	t.AddRow("tREFI ns", float64(tm.TREFI()))
	t.AddRow("tRET extended ms", float64(dram.TRETExtended/dram.Millisecond))
	t.AddRow("tRET normal ms", float64(dram.TRETNormal/dram.Millisecond))
	t.AddRow("ARs per window", float64(tm.NumAutoRefresh))
	for _, c := range []struct {
		name string
		mA   float64
	}{
		{"IDD0", idd.IDD0}, {"IDD1", idd.IDD1}, {"IDD2P", idd.IDD2P}, {"IDD2N", idd.IDD2N},
		{"IDD3", idd.IDD3N}, {"IDD4W", idd.IDD4W}, {"IDD4R", idd.IDD4R}, {"IDD5", idd.IDD5},
		{"IDD6", idd.IDD6}, {"IDD7", idd.IDD7},
	} {
		t.AddRow(c.name+" mA", c.mA)
	}
	return t
}
