package sim

import (
	"fmt"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/ostrace"
	"zerorefresh/internal/workload"
)

// Long-horizon experiment: the regime the dense loop cannot reach.
//
// The paper's operating points — day-scale uptimes with write bursts far
// apart — leave the memory untouched for the overwhelming majority of
// retention windows. Stepping those windows one by one makes simulated
// time proportional to wall-clock time regardless of activity; the event
// core makes it proportional to *activity*, fast-forwarding every idle
// window through the refresh engines' bulk replay. RunLongHorizon drives
// thousands of windows of mcf with bursts spaced progressively further
// apart and reports how much of the horizon ran as bulk replay, along with
// the refresh metrics, which must not depend on the spacing mechanism.

// RunLongHorizon simulates o.Windows*1024 retention windows (the default 8
// gives 8192 windows — over four simulated minutes in the 32 ms extended
// mode) on the event core, with one write burst every 64/256/1024 windows
// and a periodic read-only retention probe. Each row reports the window
// count, the fraction fast-forwarded through bulk idle replay, the events
// popped, normalized refresh, and the probe's integrity violations (always
// zero: charge-aware skipping cannot lose data).
func RunLongHorizon(o Options) (*Table, error) {
	o = o.withDefaults()
	prof, ok := workload.ByName("mcf")
	if !ok {
		return nil, fmt.Errorf("sim: mcf profile missing")
	}
	horizon := o.Windows * 1024
	t := &Table{
		Title: fmt.Sprintf("Extension: long-horizon event-driven run (mcf, %d windows)", horizon),
		Columns: []string{
			"windows", "replayed frac", "events", "norm refresh", "probe viol",
		},
	}
	spacings := []int{64, 256, 1024}
	rows := make([][]float64, len(spacings))
	if err := forEach(o, len(spacings), func(i int, o Options) error {
		row, err := runLongHorizon(o, prof, horizon, spacings[i])
		rows[i] = row
		return err
	}); err != nil {
		return nil, err
	}
	for i, burstEvery := range spacings {
		t.AddRow(fmt.Sprintf("burst/%dw", burstEvery), rows[i]...)
	}
	t.Note = "idle windows fast-forwarded via bulk replay; dense stepping " +
		"would cost the same wall-clock per window regardless of activity"
	return t, nil
}

// runLongHorizon runs one spacing configuration and returns the table row.
func runLongHorizon(o Options, prof workload.Profile, horizon, burstEvery int) ([]float64, error) {
	sys, err := o.newSystem(true)
	if err != nil {
		return nil, err
	}
	gen := prof.Lines(o.Seed)
	allocated, err := populate(sys, ostrace.NewAllocator(sys.Pages()), &gen, 1.0)
	if err != nil {
		return nil, err
	}

	tret := sys.DRAM.Config().Timing.TRET
	base := sys.Clock
	var burstErr error
	// Each scheduled burst holds only its window and this shared closure.
	burst := func(w int) {
		if err := applyWindowWrites(sys, prof, &gen, allocated, o.Seed, w); err != nil && burstErr == nil {
			burstErr = err
		}
	}
	for w := 0; w < horizon; w += burstEvery {
		w := w
		sys.ScheduleWriteBurst(base+dram.Time(w)*tret, func(dram.Time) { burst(w) })
	}
	// Read-only integrity probe every 128 windows, offset half a window so
	// it lands between windows rather than on their boundaries.
	var violations int64
	sys.ScheduleRetentionChecks(base+tret/2, 128*tret, func(_ dram.Time, v int) {
		violations += int64(v)
	})
	cycles := sys.RunUntil(base + dram.Time(horizon)*tret)
	if burstErr != nil {
		return nil, burstErr
	}
	if d := sys.DecayEvents(); d != 0 {
		return nil, fmt.Errorf("sim: %d retention failures at burst spacing %d", d, burstEvery)
	}
	st := sys.EventStats()
	return []float64{
		float64(st.Windows),
		float64(st.Replayed) / float64(st.Windows),
		float64(st.Popped),
		cycles.NormalizedRefresh(),
		float64(violations),
	}, nil
}
