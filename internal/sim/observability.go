package sim

import (
	"fmt"
	"strings"

	"zerorefresh/internal/core"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/memctrl"
	"zerorefresh/internal/metrics"
)

// The observability experiments: a small end-to-end smoke run whose trace
// and time-series artifacts are golden-tested for bit-identity, and a
// human-readable per-window timeline report. Both run one benchmark at full
// allocation with epoch capture enabled and (when Options.Trace is set)
// typed events flowing from every layer.

// RunSmoke runs one fixed-seed scenario end to end with timeline capture
// enabled and returns the unified metrics table plus the captured epochs.
// On top of the content simulation it runs the benchmark through the
// Figure 17 closed loop to populate the "perf.latency_ns" demand-miss
// latency histogram. Every output is deterministic for a fixed seed.
func RunSmoke(o Options) (*Table, []core.Epoch, error) {
	o = o.withDefaults()
	o.Timeline = true
	prof := o.Benchmarks[0]
	r, err := RunScenario(o, prof, 1.0)
	if err != nil {
		return nil, nil, err
	}

	// Demand-miss latency distribution: the closed loop under the
	// conventional constant-tRFC schedule at the paper-scale per-bank
	// cadence, with every miss latency observed into a histogram.
	preg := metrics.NewRegistry()
	pcfg := memctrl.DefaultPerfConfig(dram.DefaultConfig(o.Capacity), paperARs)
	pcfg.LatencyHist = preg.Histogram("perf.latency_ns")
	memctrl.SimulateClosedLoop(closedLoopConfig(pcfg, prof, o.Seed),
		memctrl.ConstantSchedule{Busy: dram.Time(PerfTRFCns)}, dram.Millisecond).Record(preg)

	snap := metrics.Merge([]metrics.Snapshot{r.Metrics, preg.Snapshot()}, nil)
	t := MetricsTable(fmt.Sprintf("Smoke run (%s, 100%% alloc, %d windows)", prof.Name, o.Windows), snap)
	t.Note = fmt.Sprintf("norm refresh %.3f, norm energy %.3f, %d epochs captured",
		r.NormRefresh, r.NormEnergy, len(r.Timeline))
	return t, r.Timeline, nil
}

// RunTimeline runs the smoke scenario and renders its epochs as a
// human-readable per-window report: refresh work, skip rate and key
// per-window activity deltas, one row per retention window.
func RunTimeline(o Options) (*Table, []core.Epoch, error) {
	o = o.withDefaults()
	o.Timeline = true
	prof := o.Benchmarks[0]
	r, err := RunScenario(o, prof, 1.0)
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title:   fmt.Sprintf("Per-window timeline (%s, 100%% alloc)", prof.Name),
		Columns: []string{"start ms", "refreshed", "skipped", "norm", "writes", "decays"},
		Note: fmt.Sprintf("%d windows (%d warmup + %d measured); norm includes status-table rows",
			len(r.Timeline), o.Warmup, o.Windows),
	}
	for _, ep := range r.Timeline {
		var writes, decays int64
		for _, smp := range ep.Delta.Samples {
			if strings.HasSuffix(smp.Name, "/dram.word_writes") {
				writes += smp.Int
			}
			if strings.HasSuffix(smp.Name, "/dram.decay_events") {
				decays += smp.Int
			}
		}
		t.AddRow(fmt.Sprintf("w%d", ep.Window),
			float64(ep.Start)/1e6,
			float64(ep.Stats.Refreshed), float64(ep.Stats.Skipped),
			ep.Stats.NormalizedRefresh(),
			float64(writes), float64(decays))
	}
	return t, r.Timeline, nil
}

// TimelineCSV renders epochs as a deterministic CSV time-series: one row
// per retention window, with the window's refresh summary followed by one
// column per metrics sample in the delta snapshot (counters and histogram
// counts as integers, gauges in Go's shortest float form). The column set
// comes from the first epoch; per-window registries are append-only, so
// later epochs can only add columns, which are dropped to keep rows
// rectangular.
func TimelineCSV(epochs []core.Epoch) string {
	var b strings.Builder
	b.WriteString("window,start_ns,end_ns,steps,refreshed,skipped,table_rows,ar_commands,fully_skipped_ars,norm_refresh")
	var names []string
	if len(epochs) > 0 {
		for _, smp := range epochs[0].Delta.Samples {
			names = append(names, smp.Name)
			b.WriteByte(',')
			b.WriteString(csvEscape(smp.Name))
		}
	}
	b.WriteByte('\n')
	for _, ep := range epochs {
		fmt.Fprintf(&b, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%s",
			ep.Window, ep.Start, ep.End,
			ep.Stats.Steps, ep.Stats.Refreshed, ep.Stats.Skipped,
			ep.Stats.TableRows, ep.Stats.ARCommands, ep.Stats.FullySkippedARs,
			jsonFloat(ep.Stats.NormalizedRefresh()))
		byName := make(map[string]metrics.Sample, len(ep.Delta.Samples))
		for _, smp := range ep.Delta.Samples {
			byName[smp.Name] = smp
		}
		for _, name := range names {
			b.WriteByte(',')
			smp := byName[name]
			if smp.Kind == metrics.KindGauge {
				b.WriteString(jsonFloat(smp.Float))
			} else {
				fmt.Fprintf(&b, "%d", smp.Int)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TimelineJSON renders epochs as a deterministic JSON array, one object
// per window with the refresh summary and the full delta snapshot
// (histograms as {count,sum,buckets}).
func TimelineJSON(epochs []core.Epoch) string {
	var b strings.Builder
	b.WriteString("[")
	for i, ep := range epochs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "\n{\"window\":%d,\"start_ns\":%d,\"end_ns\":%d,"+
			"\"steps\":%d,\"refreshed\":%d,\"skipped\":%d,\"table_rows\":%d,"+
			"\"ar_commands\":%d,\"fully_skipped_ars\":%d,\"norm_refresh\":%s,\"metrics\":{",
			ep.Window, ep.Start, ep.End,
			ep.Stats.Steps, ep.Stats.Refreshed, ep.Stats.Skipped, ep.Stats.TableRows,
			ep.Stats.ARCommands, ep.Stats.FullySkippedARs,
			jsonFloat(ep.Stats.NormalizedRefresh()))
		for j, smp := range ep.Delta.Samples {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(jsonString(smp.Name))
			b.WriteByte(':')
			switch smp.Kind {
			case metrics.KindGauge:
				b.WriteString(jsonFloat(smp.Float))
			case metrics.KindHistogram:
				fmt.Fprintf(&b, "{\"count\":%d,\"sum\":%d,\"buckets\":[", smp.Int, smp.Sum)
				for k, c := range smp.Buckets {
					if k > 0 {
						b.WriteByte(',')
					}
					fmt.Fprintf(&b, "%d", c)
				}
				b.WriteString("]}")
			default:
				fmt.Fprintf(&b, "%d", smp.Int)
			}
		}
		b.WriteString("}}")
	}
	b.WriteString("\n]\n")
	return b.String()
}
