package sim

import (
	"math"
	"strings"
	"testing"

	"zerorefresh/internal/metrics"
)

func sampleTable() *Table {
	t := &Table{
		Title:   "Sample",
		Columns: []string{"norm", "energy"},
		Note:    "two rows",
	}
	t.AddRow("gcc", 0.5, 0.6)
	t.AddRow("mcf", 0.7, 0.8)
	return t
}

func TestTableString(t *testing.T) {
	tb := sampleTable()
	tb.AddRow("tiny", 0.0004, 2e-7)
	s := tb.String()
	for _, want := range []string{
		"== Sample ==",
		"norm", "energy",
		"gcc", "0.500", "0.600",
		"-- two rows",
		"0.0004", "2e-07", // sub-milli magnitudes switch to %g
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q in:\n%s", want, s)
		}
	}
}

func TestTableJSON(t *testing.T) {
	tb := &Table{Title: "T\"1\"", Columns: []string{"v"}, Note: "line\nbreak"}
	tb.AddRow("r", 0.5, math.NaN())
	got := tb.JSON()
	want := `{"title":"T\"1\"","columns":["v"],"rows":[{"name":"r","values":[0.5,null]}],"note":"line\nbreak"}` + "\n"
	if got != want {
		t.Fatalf("JSON() = %q, want %q", got, want)
	}
	if got2 := tb.JSON(); got2 != got {
		t.Fatal("JSON() not deterministic across calls")
	}
}

func TestColumnMeanAndMeanRow(t *testing.T) {
	tb := sampleTable()
	tb.AddMeanRow()
	mean, ok := tb.Find("MEAN")
	if !ok {
		t.Fatal("MEAN row missing")
	}
	if math.Abs(mean.Values[0]-0.6) > 1e-12 || math.Abs(mean.Values[1]-0.7) > 1e-12 {
		t.Fatalf("MEAN = %v, want [0.6 0.7]", mean.Values)
	}
	// A second AddMeanRow must exclude the first MEAN row from the average.
	tb.AddMeanRow()
	if m2 := tb.Rows[len(tb.Rows)-1]; math.Abs(m2.Values[0]-0.6) > 1e-12 {
		t.Fatalf("second MEAN = %v, MEAN rows must not feed the average", m2.Values)
	}
	if _, ok := tb.Find("nope"); ok {
		t.Fatal("Find() matched a missing row")
	}
	if got := (&Table{Columns: []string{"v"}}).ColumnMean(0); got != 0 {
		t.Fatalf("ColumnMean on empty table = %g, want 0", got)
	}
}

func TestMetricsTableExpandsHistograms(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("writes").Add(7)
	reg.Gauge("norm").Set(0.25)
	h := reg.Histogram("lat")
	for _, v := range []int64{1, 2, 3, 4} {
		h.Observe(v)
	}
	tb := MetricsTable("M", reg.Snapshot())
	rows := map[string]float64{}
	for _, r := range tb.Rows {
		rows[r.Name] = r.Values[0]
	}
	if rows["writes"] != 7 || rows["norm"] != 0.25 {
		t.Fatalf("scalar rows wrong: %v", rows)
	}
	if rows["lat.count"] != 4 {
		t.Fatalf("lat.count = %g, want 4", rows["lat.count"])
	}
	if math.Abs(rows["lat.mean"]-2.5) > 1e-12 {
		t.Fatalf("lat.mean = %g, want 2.5", rows["lat.mean"])
	}
	for _, q := range []string{"lat.p50", "lat.p99"} {
		if _, ok := rows[q]; !ok {
			t.Fatalf("histogram row %s missing", q)
		}
	}
	if _, ok := rows["lat"]; ok {
		t.Fatal("raw histogram row must not appear alongside its expansion")
	}
}

// TestJSONStringEscapes checks that every string field of a table's JSON
// escapes quotes, backslashes and control characters.
func TestJSONStringEscapes(t *testing.T) {
	s := "a\"b\\c\nd\te\rf\x01g"
	tb := &Table{Title: s, Columns: []string{s}, Note: s}
	tb.AddRow(s)
	q := `"a\"b\\c\nd\te\rf\u0001g"`
	want := `{"title":` + q + `,"columns":[` + q + `],"rows":[{"name":` + q + `,"values":[]}],"note":` + q + "}\n"
	if got := tb.JSON(); got != want {
		t.Fatalf("JSON() = %q, want %q", got, want)
	}
}

// TestJSONFloat checks a table's JSON values: shortest round-trip numbers,
// and null for NaN and the infinities, which JSON cannot carry.
func TestJSONFloat(t *testing.T) {
	tb := &Table{}
	tb.AddRow("r", 0.5, 3, math.NaN(), math.Inf(1), math.Inf(-1), 1.0/3)
	want := `{"title":"","columns":[],"rows":[{"name":"r","values":[0.5,3,null,null,null,0.3333333333333333]}],"note":""}` + "\n"
	if got := tb.JSON(); got != want {
		t.Fatalf("JSON() = %q, want %q", got, want)
	}
}
