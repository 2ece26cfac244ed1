// Package sim wires the whole system together and drives every experiment
// of the paper's evaluation (Section VI): one entry point per table and
// figure, each returning a Table whose rows/series mirror what the paper
// plots. Experiments() catalogues them, with the extensions and the
// ablations; cmd/zrsim and the root facade run the catalogue, and the
// bench module times its entry points.
package sim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"zerorefresh/internal/core"
	"zerorefresh/internal/metrics"
)

// Table is a generic experiment result: named rows of float columns.
type Table struct {
	// Title identifies the experiment ("Figure 14", ...).
	Title string
	// Columns are the column headers.
	Columns []string
	// Rows hold the values.
	Rows []Row
	// Note carries methodology remarks printed under the table.
	Note string
}

// Row is one table line.
type Row struct {
	Name   string
	Values []float64
}

// AddRow appends a row.
func (t *Table) AddRow(name string, values ...float64) {
	t.Rows = append(t.Rows, Row{Name: name, Values: values})
}

// ColumnMean returns the mean of column i over rows (rows named "MEAN" or
// with missing values are excluded).
func (t *Table) ColumnMean(i int) float64 {
	sum, n := 0.0, 0
	for _, r := range t.Rows {
		if r.Name == "MEAN" || i >= len(r.Values) {
			continue
		}
		sum += r.Values[i]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AddMeanRow appends a "MEAN" row averaging every column.
func (t *Table) AddMeanRow() {
	if len(t.Rows) == 0 {
		return
	}
	means := make([]float64, len(t.Columns))
	for i := range means {
		means[i] = t.ColumnMean(i)
	}
	t.AddRow("MEAN", means...)
}

// Find returns the row with the given name.
func (t *Table) Find(name string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Name == name {
			return r, true
		}
	}
	return Row{}, false
}

// String renders the table for terminal output.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	nameW := 4
	for _, r := range t.Rows {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	colW := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		colW[i] = len(c)
		if colW[i] < 8 {
			colW[i] = 8
		}
	}
	fmt.Fprintf(&b, "%-*s", nameW+2, "")
	for i, c := range t.Columns {
		fmt.Fprintf(&b, " %*s", colW[i], c)
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", nameW+2, r.Name)
		for i, v := range r.Values {
			w := 8
			if i < len(colW) {
				w = colW[i]
			}
			if v != 0 && v > -0.001 && v < 0.001 {
				// Sub-milli magnitudes (per-op energies, leakage watts)
				// would round to 0.000; show them in scientific form.
				fmt.Fprintf(&b, " %*.3g", w, v)
			} else {
				fmt.Fprintf(&b, " %*.3f", w, v)
			}
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Note)
	}
	return b.String()
}

// MetricsTable renders a metrics snapshot as a Table: one row per sample,
// in name order, with the value in a single column. Counters render
// exactly (they are int64 and the experiment scales keep them well inside
// float64's 2^53 integer range); gauges render as-is. This is what lets
// every layer's statistics — DRAM, refresh engine, controller, transform
// pipeline, workload content, energy — appear in the same report format as
// the paper's figures.
func MetricsTable(title string, snap metrics.Snapshot) *Table {
	t := &Table{Title: title, Columns: []string{"value"}}
	for _, smp := range snap.Sorted().Samples {
		if smp.Kind == metrics.KindHistogram {
			// Distributions expand into their summary statistics so the
			// one-column format holds.
			t.AddRow(smp.Name+".count", float64(smp.Int))
			t.AddRow(smp.Name+".mean", smp.Mean())
			t.AddRow(smp.Name+".p50", smp.Quantile(0.50))
			t.AddRow(smp.Name+".p99", smp.Quantile(0.99))
			continue
		}
		t.AddRow(smp.Name, smp.Value())
	}
	return t
}

// CSV renders the table as RFC-4180-style CSV for plotting pipelines.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString("name")
	for _, c := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(csvEscape(r.Name))
		for _, v := range r.Values {
			fmt.Fprintf(&b, ",%g", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// JSON renders the table as a deterministic JSON document for scripts:
// fields appear in a fixed order and floats use Go's shortest round-trip
// formatting, so the same table always serializes to the same bytes.
func (t *Table) JSON() string {
	var b strings.Builder
	b.WriteString("{\"title\":")
	b.WriteString(jsonString(t.Title))
	b.WriteString(",\"columns\":[")
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(jsonString(c))
	}
	b.WriteString("],\"rows\":[")
	for i, r := range t.Rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("{\"name\":")
		b.WriteString(jsonString(r.Name))
		b.WriteString(",\"values\":[")
		for j, v := range r.Values {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(jsonFloat(v))
		}
		b.WriteString("]}")
	}
	b.WriteString("],\"note\":")
	b.WriteString(jsonString(t.Note))
	b.WriteString("}\n")
	return b.String()
}

// jsonString quotes s as a JSON string with only the escapes JSON defines.
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		case '\r':
			b.WriteString(`\r`)
		default:
			if r < 0x20 {
				fmt.Fprintf(&b, `\u%04x`, r)
			} else {
				b.WriteRune(r)
			}
		}
	}
	b.WriteByte('"')
	return b.String()
}

// jsonFloat formats v as a JSON number. JSON has no NaN/Inf; they render
// as null, which unmarshals to a zero float.
func jsonFloat(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Experiment is one entry of the experiment catalogue: every reported
// number comes from running one.
type Experiment struct {
	// ID names the experiment (zrsim -exp ID).
	ID string
	// Run regenerates the experiment. Only smoke and timeline return
	// epochs, their per-window time-series; the others return nil.
	Run func(Options) (*Table, []core.Epoch, error)
	// Demo marks an entry that reproduces no result (the
	// retention-violation demo); running them all skips it.
	Demo bool
}

// Experiments returns the catalogue in the order zrsim -exp all runs it:
// the paper's tables and figures, the extensions, the observability runs,
// the ablations, then the demo.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Run: infallible(func(o Options) *Table { return RunTable1(o.Seed, 20000) })},
		{ID: "table2", Run: infallible(func(Options) *Table { return RunTable2() })},
		{ID: "fig4", Run: infallible(func(Options) *Table { return RunFig4() })},
		{ID: "fig5", Run: infallible(func(Options) *Table { return RunFig5() })},
		{ID: "fig6", Run: infallible(RunFig6)},
		{ID: "fig14", Run: tableOnly(RunFig14)},
		{ID: "fig15", Run: tableOnly(RunFig15)},
		{ID: "fig16", Run: tableOnly(RunFig16)},
		{ID: "fig17", Run: tableOnly(RunFig17)},
		{ID: "fig18", Run: tableOnly(RunFig18)},
		{ID: "fig19", Run: tableOnly(RunFig19)},
		{ID: "compare", Run: tableOnly(RunComparison)},
		{ID: "cmdlevel", Run: tableOnly(RunCmdLevelTable)},
		{ID: "power", Run: tableOnly(RunPowerBreakdown)},
		{ID: "metrics", Run: tableOnly(RunMetricsDump)},
		{ID: "smoke", Run: RunSmoke},
		{ID: "timeline", Run: RunTimeline},
		{ID: "longhorizon", Run: tableOnly(RunLongHorizon)},
		{ID: "ablation", Run: tableOnly(RunAblations)},
		{ID: "violation", Run: tableOnly(RunViolationDemo), Demo: true},
	}
}

// ExperimentByID returns the catalogue entry named id.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// tableOnly adapts a runner that captures no epochs to the catalogue.
func tableOnly(run func(Options) (*Table, error)) func(Options) (*Table, []core.Epoch, error) {
	return func(o Options) (*Table, []core.Epoch, error) {
		t, err := run(o)
		return t, nil, err
	}
}

// infallible adapts a runner that cannot fail (a model evaluation, no
// simulated system) to the catalogue.
func infallible(run func(Options) *Table) func(Options) (*Table, []core.Epoch, error) {
	return func(o Options) (*Table, []core.Epoch, error) { return run(o), nil, nil }
}
