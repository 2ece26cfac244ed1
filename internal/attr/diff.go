package attr

import (
	"fmt"
	"strings"

	"zerorefresh/internal/trace"
)

// First-divergence diff: walk two deterministic traces in lockstep and
// pinpoint the first event where they disagree. Because every simulator
// export is in merged (time, shard, seq) order, two same-seed runs are
// byte-identical streams, and the first differing event — not a raw
// counter mismatch at the end of the run — is the actionable signal.

// Divergence describes the first point where two traces disagree.
type Divergence struct {
	// Index is the position (0-based) of the first divergent event in
	// the merged streams.
	Index int
	// HasA/HasB report whether each stream still had an event at Index
	// (false means that stream ended early).
	HasA, HasB bool
	// A and B are the divergent events themselves, valid when HasA/HasB.
	A, B trace.Event
	// LenA and LenB are the total stream lengths.
	LenA, LenB int
	// Common holds up to the requested context window of events
	// immediately before Index; both streams agree on these by
	// construction.
	Common []trace.Event
	// AfterA and AfterB hold up to the context window of events from
	// each stream strictly after Index.
	AfterA, AfterB []trace.Event
}

// firstDivergence returns the index of the first position where the two
// event slices disagree — a shorter stream diverges at its length — or
// -1 when the streams are identical. This is the lockstep inner loop the
// differential twin tests and `zrquery diff` both run over full traces.
//
//zr:hotpath
func firstDivergence(a, b []trace.Event) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// Diff compares two traces and returns the first divergence with up to
// context events of surrounding detail from each stream, or nil when the
// traces are identical.
func Diff(a, b []trace.Event, context int) *Divergence {
	i := firstDivergence(a, b)
	if i < 0 {
		return nil
	}
	if context < 0 {
		context = 0
	}
	d := &Divergence{Index: i, LenA: len(a), LenB: len(b)}
	if i < len(a) {
		d.HasA, d.A = true, a[i]
	}
	if i < len(b) {
		d.HasB, d.B = true, b[i]
	}
	lo := i - context
	if lo < 0 {
		lo = 0
	}
	d.Common = append([]trace.Event(nil), a[lo:i]...)
	d.AfterA = tail(a, i+1, context)
	d.AfterB = tail(b, i+1, context)
	return d
}

func tail(ev []trace.Event, from, n int) []trace.Event {
	if from >= len(ev) {
		return nil
	}
	hi := from + n
	if hi > len(ev) {
		hi = len(ev)
	}
	return append([]trace.Event(nil), ev[from:hi]...)
}

// Report renders a divergence (or its absence) as a deterministic text
// report. labelA/labelB name the two traces (file paths, test twin
// names). The phrase "first divergence at event" is load-bearing: CI and
// the differential tests grep for it.
func (d *Divergence) Report(labelA, labelB string) string {
	var b strings.Builder
	if d == nil {
		b.WriteString("no divergence\n")
		return b.String()
	}
	fmt.Fprintf(&b, "first divergence at event %d\n", d.Index)
	fmt.Fprintf(&b, "  A: %s (%d events)\n", labelA, d.LenA)
	fmt.Fprintf(&b, "  B: %s (%d events)\n", labelB, d.LenB)
	if len(d.Common) > 0 {
		fmt.Fprintf(&b, "  last %d common events:\n", len(d.Common))
		for i, e := range d.Common {
			fmt.Fprintf(&b, "    [%d] %s\n", d.Index-len(d.Common)+i, eventLine(e))
		}
	}
	writeSide := func(name string, has bool, e trace.Event, after []trace.Event) {
		if !has {
			fmt.Fprintf(&b, "  %s: <end of stream>\n", name)
			return
		}
		fmt.Fprintf(&b, "  %s: %s\n", name, eventLine(e))
		for i, ae := range after {
			fmt.Fprintf(&b, "    [%d] %s\n", d.Index+1+i, eventLine(ae))
		}
	}
	writeSide("A", d.HasA, d.A, d.AfterA)
	writeSide("B", d.HasB, d.B, d.AfterB)
	if d.HasA && d.HasB {
		b.WriteString("  fields differing: ")
		b.WriteString(strings.Join(diffFields(d.A, d.B), ", "))
		b.WriteByte('\n')
	}
	return b.String()
}

// eventLine renders one event in the report's fixed single-line form.
func eventLine(e trace.Event) string {
	return fmt.Sprintf("t=%dns shard=%d seq=%d %s chip=%d bank=%d row=%d a=%d b=%d",
		e.Time, e.Shard, e.Seq, e.Kind, e.Chip, e.Bank, e.Row, e.A, e.B)
}

// diffFields lists which fields of two events differ, in declaration
// order.
func diffFields(a, b trace.Event) []string {
	var f []string
	if a.Kind != b.Kind {
		f = append(f, "kind")
	}
	if a.Shard != b.Shard {
		f = append(f, "shard")
	}
	if a.Time != b.Time {
		f = append(f, "time")
	}
	if a.Chip != b.Chip {
		f = append(f, "chip")
	}
	if a.Bank != b.Bank {
		f = append(f, "bank")
	}
	if a.Row != b.Row {
		f = append(f, "row")
	}
	if a.A != b.A {
		f = append(f, "a")
	}
	if a.B != b.B {
		f = append(f, "b")
	}
	if a.Seq != b.Seq {
		f = append(f, "seq")
	}
	return f
}

// TB is the subset of testing.TB the test helper needs; taking an
// interface keeps attr import-free of testing in non-test builds.
type TB interface {
	Helper()
	Fatalf(format string, args ...interface{})
}

// MustMatch fails the test with a first-divergence report when the two
// event streams differ. It is the shared assertion behind the
// differential twin tests in dram, memctrl and refresh: instead of "event
// 1234 mismatch", a failure prints when, where and how the twins split.
func MustMatch(tb TB, label string, a, b []trace.Event) {
	tb.Helper()
	if d := Diff(a, b, 3); d != nil {
		tb.Fatalf("%s: traces diverge\n%s", label, d.Report("twin A", "twin B"))
	}
}
