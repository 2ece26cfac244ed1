package sim

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/energy"
)

// RunPowerBreakdown is a diagnostic extension of Figure 4: the full DRAM
// power budget of the Table II system (background, read/write bursts,
// refresh) under conventional refresh and under ZERO-REFRESH, per
// benchmark. Refresh power scales with the benchmark's measured normalized
// refresh at 100% allocation; the ZERO-REFRESH column also carries the
// technique's overheads (access-bit SRAM leakage and the EBDI module at
// the benchmark's traffic rate).
func RunPowerBreakdown(o Options) (*Table, error) {
	o = o.withDefaults()
	p := energy.TableII()
	devices := dram.LineChips

	// Device-level constants at the extended-temperature cadence.
	tREFIns := float64(dram.TRETExtended) / 8192
	refreshW := (p.IDD5 - p.IDD3N) * 1e-3 * p.VDD * energy.DensityTRFC(32) / tREFIns * float64(devices)
	backgroundW := p.BackgroundPowerW(devices)

	t := &Table{
		Title:   "Extension: DRAM power breakdown (W, paper-scale 32 GB rank)",
		Columns: []string{"background", "read/write", "refresh conv", "refresh ZR", "ZR overhead"},
		Note:    "refresh scales with the benchmark's measured normalized refresh at 100% alloc",
	}
	rows := make([][]float64, len(o.Benchmarks))
	err := forEach(len(o.Benchmarks), func(i int) error {
		prof := o.Benchmarks[i]
		res, err := RunScenario(o, prof, 1.0)
		if err != nil {
			return err
		}
		// Read/write bus power from the benchmark's traffic intensity:
		// duty ~ rate * burst time.
		rate := prof.RequestRate(1/prof.BaseCPI, 4.0) * 4 // 4 cores, req/ns
		duty := rate * 4.0                                // tBurst = 4 ns
		if duty > 1 {
			duty = 1
		}
		rwW := p.ReadPowerW(duty*(1-prof.WriteFrac), devices) + p.WritePowerW(duty*prof.WriteFrac, devices)

		// ZERO-REFRESH overheads: SRAM leakage + EBDI ops at the
		// traffic rate (15 pJ/op on every read and write).
		overheadW := energy.SRAMLeakageW(8<<10) + rate*1e9*energy.EBDIEnergyPerOpJ
		rows[i] = []float64{backgroundW, rwW, refreshW, refreshW * res.NormRefresh, overheadW}
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
