// Package cpu holds the processor-core parameters of the simulated system
// (Table II: four 4 GHz out-of-order x86 cores). The core model itself is
// Figure 17's closed loop (sim's closedLoopConfig over
// memctrl.SimulateClosedLoop): each core overlaps MLP outstanding LLC
// misses and spends the benchmark profile's own base CPI on everything
// else. This captures what the ZERO-REFRESH evaluation needs from the core
// — how much refresh-induced memory latency translates into lost IPC —
// without a full pipeline model.
package cpu

// CoreConfig holds the per-core performance parameters.
type CoreConfig struct {
	// FreqGHz is the core clock (4 GHz in Table II).
	FreqGHz float64
	// MLP is the average number of outstanding LLC misses the core
	// overlaps; the effective stall per miss is latency/MLP.
	MLP float64
}

// DefaultCoreConfig matches the Table II processor.
func DefaultCoreConfig() CoreConfig {
	return CoreConfig{FreqGHz: 4.0, MLP: 4.0}
}
