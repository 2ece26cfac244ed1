package sim

import (
	"fmt"

	"zerorefresh/internal/dram"
)

// Retention-violation demo: the one experiment that is supposed to fail.
//
// Every real experiment in this package treats a non-zero decay count as
// a fatal error, because charge-aware refresh must never lose data. That
// leaves the failure machinery — the DRAM module's retention-violation
// trace events, the dram.decay_events counter, and the introspection
// plane's flight-recorder auto-arming — exercised only by unit tests.
// RunViolationDemo exercises it end to end: it charges rows and then
// deliberately withholds refresh past their retention deadline, so the
// read-back sweep trips real violations. Under `zrsim -serve` the first
// violation event auto-arms the flight recorder, and the dump at /flight
// is the post-mortem artifact CI pins.

// RunViolationDemo writes benchmark content into a set of pages, advances
// the clock two retention windows without running any refresh, and reads
// the pages back. Every charged row crosses its deadline, so the sweep
// must observe decay events — the demo errors if it observes none (the
// failure machinery itself would be broken).
func RunViolationDemo(o Options) (*Table, error) {
	o = o.withDefaults()
	prof := o.Benchmarks[0]
	sys, err := o.newSystem()
	if err != nil {
		return nil, err
	}

	pages := sys.Pages()
	if pages > 64 {
		pages = 64
	}
	for p := 0; p < pages; p++ {
		if err := sys.FillPageFromProfile(prof, p, o.Seed, 0); err != nil {
			return nil, err
		}
	}

	// Withhold refresh: jump the clock past every charged row's retention
	// deadline instead of running windows. The next touch of each row —
	// the read-back below — observes the missed deadline, zeroes the
	// charged cells and emits one retention-violation event per chip-row.
	tret := sys.DRAM.Config().Timing.TRET
	sys.Clock += 2 * tret

	var readErrs int64
	lines := sys.DRAM.Config().RowBytes / dram.LineBytes
	for p := 0; p < pages; p++ {
		for ln := 0; ln < lines; ln++ {
			if _, err := sys.ReadPageLine(p, ln); err != nil {
				readErrs++
			}
		}
	}

	decays := sys.DecayEvents()
	if decays == 0 {
		return nil, fmt.Errorf("sim: violation demo observed no decay events; the retention machinery is broken")
	}

	t := &Table{
		Title:   "Retention-violation demo (deliberate refresh withholding)",
		Columns: []string{"pages written", "windows withheld", "decay events", "read errors"},
	}
	t.AddRow(prof.Name, float64(pages), 2, float64(decays), float64(readErrs))
	t.Note = "decay events are EXPECTED here: this demo withholds refresh to " +
		"exercise violation tracing and flight-recorder auto-arming"
	return t, nil
}
