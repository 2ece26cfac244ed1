package energy

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/refresh"
)

// Model converts a refresh engine's cycle statistics into energy, including
// every ZERO-REFRESH overhead the paper accounts for (Section VI-B): the
// EBDI module on both reads and writes, the access-bit SRAM leakage, and
// the DRAM accesses to the zero-status table each refresh cycle.
type Model struct {
	Params PowerParams
	// Devices is the rank width (chips).
	Devices int
	// TRFCns is the refresh command duration used for energy. The
	// energy model uses the density-realistic value (DensityTRFC), not
	// the Table II timing parameter, so per-row refresh energy is
	// representative of real devices.
	TRFCns float64
	// RowsPerAR converts per-AR energy to per-row-step energy.
	RowsPerAR int
	// TRCns is the row-cycle time used for status-table accesses.
	TRCns float64
	// SRAMBytes is the access-bit table size (leaks continuously).
	SRAMBytes int
}

// NewModel builds the default energy model for an engine attached to a
// module of the given geometry.
func NewModel(cfg dram.Config, eng *refresh.Engine) Model {
	return Model{
		Params:    TableII(),
		Devices:   dram.LineChips,
		TRFCns:    DensityTRFC(32), // Table II implies 32 Gb devices
		RowsPerAR: eng.Config().RowsPerAR,
		TRCns:     50,
		SRAMBytes: eng.AccessBitSRAMBytes(),
	}
}

// PerRowJ is the refresh energy of one refresh step (one rank-level row
// across all devices).
func (m Model) PerRowJ() float64 {
	return m.Params.RefreshEnergyPerARJ(m.TRFCns, m.Devices) / float64(m.RowsPerAR)
}

// StatusAccessJ is the energy of one status-table read or write.
func (m Model) StatusAccessJ() float64 {
	return m.Params.ActivateEnergyJ(m.TRCns, 1) // table lives in one region
}

// BaselineCycleJ returns the conventional refresh energy of one retention
// window: every step refreshed, no table, no SRAM, no EBDI.
func (m Model) BaselineCycleJ(steps int64) float64 {
	return float64(steps) * m.PerRowJ()
}

// CycleJ returns the ZERO-REFRESH energy of one retention window:
// performed refreshes (including the status-table rows), status-table I/O,
// EBDI operations on the window's memory traffic, and SRAM leakage over the
// window.
func (m Model) CycleJ(cycle refresh.CycleStats, ebdiOps int64) float64 {
	e := float64(cycle.Refreshed+cycle.TableRows) * m.PerRowJ()
	e += float64(cycle.StatusReads+cycle.StatusWrites) * m.StatusAccessJ()
	e += float64(ebdiOps) * EBDIEnergyPerOpJ
	e += SRAMLeakageW(m.SRAMBytes) * float64(cycle.End-cycle.Start) * 1e-9
	return e
}

// Record publishes the energy accounting of the given window into a
// metrics registry under "energy." gauges, so the energy breakdown appears
// in the same snapshot as the hardware counters it was derived from.
func (m Model) Record(reg *metrics.Registry, cycle refresh.CycleStats, ebdiOps int64) {
	reg.Gauge("energy.cycle_j").Set(m.CycleJ(cycle, ebdiOps))
	reg.Gauge("energy.baseline_j").Set(m.BaselineCycleJ(cycle.Steps))
	reg.Gauge("energy.normalized").Set(m.NormalizedEnergy(cycle, ebdiOps))
	reg.Gauge("energy.ebdi_j").Set(float64(ebdiOps) * EBDIEnergyPerOpJ)
	reg.Gauge("energy.sram_leak_w").Set(SRAMLeakageW(m.SRAMBytes))
}

// NormalizedEnergy returns CycleJ / BaselineCycleJ — the metric of
// Figure 15.
func (m Model) NormalizedEnergy(cycle refresh.CycleStats, ebdiOps int64) float64 {
	base := m.BaselineCycleJ(cycle.Steps)
	if base == 0 {
		return 0
	}
	return m.CycleJ(cycle, ebdiOps) / base
}
