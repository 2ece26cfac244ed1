package main

import (
	"fmt"
	"io"
	"time"
)

// span names one layer boundary the traced run times. Each span wraps a
// call from this package into one layer of the simulator; the program
// itself is not instrumented.
type span int

const (
	spanRep        span = iota // one experiment repetition (the root)
	spanUnit                   // one experiment unit: a scenario, a burst spacing, a benchmark
	spanNewSystem              // core.NewSystem
	spanAlloc                  // ostrace.Allocator.SetTargetFraction
	spanLine                   // workload.Profile.LineAt over one page
	spanWrite                  // core.System.WriteLineAt over one page
	spanWindow                 // core.System.RunWindow
	spanBurst                  // one retention window's write burst
	spanEvents                 // core.System.RunUntil
	spanProbe                  // dram.Module.CheckIntegrity over every rank
	spanClosedLoop             // memctrl.SimulateClosedLoop
	spanExport                 // trace.WriteNDJSON
	numSpans
)

var spanNames = [numSpans]string{
	spanRep:        "bench.rep",
	spanUnit:       "sim.unit",
	spanNewSystem:  "core.newsystem",
	spanAlloc:      "ostrace.alloc",
	spanLine:       "workload.line",
	spanWrite:      "memctrl.write",
	spanWindow:     "refresh.window",
	spanBurst:      "sim.burst",
	spanEvents:     "core.events",
	spanProbe:      "dram.probe",
	spanClosedLoop: "memctrl.closedloop",
	spanExport:     "trace.export",
}

func (s span) String() string { return spanNames[s] }

// spanStat aggregates every closed span of one name under one parent.
type spanStat struct {
	count int64
	total time.Duration
	// self is total minus the time covered by child spans.
	self time.Duration
}

// ledger records spans in memory as a stack and aggregates them by
// (parent, span) when they close, so its cost and size do not grow with
// the number of spans. It is single-goroutine: the traced run drives every
// experiment sequentially.
type ledger struct {
	stack []frame
	// stats is indexed [parent][span]; parent numSpans marks a root.
	stats [numSpans + 1][numSpans]spanStat
}

type frame struct {
	s     span
	start time.Time
	child time.Duration
}

func (l *ledger) begin(s span) {
	l.stack = append(l.stack, frame{s: s, start: time.Now()})
}

func (l *ledger) end() {
	n := len(l.stack) - 1
	f := l.stack[n]
	l.stack = l.stack[:n]
	d := time.Since(f.start)
	parent := numSpans
	if n > 0 {
		parent = l.stack[n-1].s
		l.stack[n-1].child += d
	}
	st := &l.stats[parent][f.s]
	st.count++
	st.total += d
	st.self += d - f.child
}

// total returns the summed duration of every span named s.
func (l *ledger) total(s span) time.Duration {
	var d time.Duration
	for p := range l.stats {
		d += l.stats[p][s].total
	}
	return d
}

// self returns the summed self time of every span named s.
func (l *ledger) self(s span) time.Duration {
	var d time.Duration
	for p := range l.stats {
		d += l.stats[p][s].self
	}
	return d
}

// selfSum returns the self time of all spans together: for a balanced
// ledger it equals the duration of the root spans.
func (l *ledger) selfSum() time.Duration {
	var d time.Duration
	for s := span(0); s < numSpans; s++ {
		d += l.self(s)
	}
	return d
}

// write renders the span tree, one line per (parent, span) pair in
// depth-first order from the root, with count, total and self time.
func (l *ledger) write(w io.Writer) {
	fmt.Fprintf(w, "%-40s %10s %12s %12s\n", "span", "count", "total_s", "self_s")
	var walk func(parent span, depth int)
	walk = func(parent span, depth int) {
		for s := span(0); s < numSpans; s++ {
			st := l.stats[parent][s]
			if st.count == 0 {
				continue
			}
			name := fmt.Sprintf("%*s%s", 2*depth, "", s)
			fmt.Fprintf(w, "%-40s %10d %12.4f %12.4f\n", name, st.count, st.total.Seconds(), st.self.Seconds())
			if depth < int(numSpans) {
				walk(s, depth+1)
			}
		}
	}
	walk(numSpans, 0)
}
