package sim

import (
	"fmt"

	"zerorefresh/internal/baseline"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/workload"
)

// drivePolicy runs any refresh policy through the uniform engine contract:
// `windows` retention windows, each preceded by the note callback feeding
// write notifications (nil for policies driven without traffic), returning
// the mean normalized refresh. Policy families that used to require their
// own driver loops — access-aware, retention-aware, charge-aware — all run
// through this one function now that they share engine.RefreshPolicy.
func drivePolicy(p engine.RefreshPolicy, windows int, note func(w int, n engine.WriteNotifier)) float64 {
	var norm float64
	var clock dram.Time
	for w := 0; w < windows; w++ {
		if note != nil {
			note(w, p)
		}
		res := p.RunPolicyCycle(clock)
		norm += res.NormalizedRefresh()
		clock = res.End
	}
	return norm / float64(windows)
}

// smartNorm is the Smart Refresh column of Figure 19 and RunComparison:
// the policy's mean normalized refresh over o.Windows windows of a rank
// with rowsPerBank rows per bank, with prof's per-window touched footprint
// noted as writes before each window. The footprint is an absolute
// application property, so capacity only grows the denominator.
func smartNorm(o Options, prof workload.Profile, rowsPerBank int) float64 {
	touched := prof.TouchedRowsPerWindow(o.RowBytes, dram.TRETExtended)
	totalRows := 8 * rowsPerBank
	return drivePolicy(baseline.NewSmartRefresh(8, rowsPerBank), o.Windows,
		func(w int, n engine.WriteNotifier) {
			for _, r := range workload.PickRows(o.Seed, w, totalRows, touched) {
				n.NoteWrite(r%8, r/8)
			}
		})
}

// RunComparison is an extension experiment beyond the paper's Figure 19:
// it scales capacity with mcf content against *three* refresh-skipping
// families — access-aware (Smart Refresh), retention-aware (RAIDR-style)
// and value-aware (ZERO-REFRESH) — and probes the safety property the
// paper argues qualitatively in Section II-D: under variable retention
// time, a static retention profile silently skips refreshes it can no
// longer afford, while charge-aware skipping cannot lose data it skips
// (discharged cells hold nothing).
func RunComparison(o Options) (*Table, error) {
	o = o.withDefaults()
	prof, ok := workload.ByName("mcf")
	if !ok {
		return nil, fmt.Errorf("sim: mcf profile missing")
	}
	t := &Table{
		Title:   "Extension: refresh-skipping families vs capacity (mcf, normalized refresh)",
		Columns: []string{"Smart", "RAIDR", "ZERO-REFRESH", "RAIDR unsafe/1k"},
	}
	var totalUnsafe int64
	for _, cap := range []int64{4 << 20, 8 << 20, 16 << 20, 32 << 20} {
		oo := o
		oo.Capacity = cap
		rowsPerBank := int(cap / 8 / int64(oo.RowBytes))
		totalRows := 8 * rowsPerBank

		// Access-aware: skip rows touched inside the window.
		smart := smartNorm(oo, prof, rowsPerBank)

		// Retention-aware: static profile, multi-rate refresh, with a
		// mild VRT drift injected after profiling. The profile ignores
		// traffic (that blindness is the hazard under test), so no notes.
		raidr := baseline.NewRetentionAware(8, rowsPerBank, oo.Seed)
		raidr.InjectVRT(0.002, oo.Seed+1)
		// The multi-rate schedule has period 4 windows; average over
		// whole periods so phase effects cancel.
		raidrWindows := ((oo.Windows+3)/4 + 1) * 4
		raidrNorm := drivePolicy(raidr, raidrWindows, nil)
		unsafePerK := float64(raidr.UnsafeSkips()) / float64(raidrWindows) / float64(totalRows) * 1000
		totalUnsafe += raidr.UnsafeSkips()

		// Value-aware: the full system simulation.
		zr, err := RunScenario(oo, prof, 1.0)
		if err != nil {
			return nil, err
		}

		t.AddRow(fmt.Sprintf("%dGB", cap>>20), smart, raidrNorm, zr.NormRefresh, unsafePerK)
	}
	t.Note = fmt.Sprintf("RAIDR skipped %d refreshes its drifted retention no longer allowed; "+
		"ZERO-REFRESH had 0 retention failures by construction", totalUnsafe)
	return t, nil
}
