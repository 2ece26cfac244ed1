package sim

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The experiment goldens pin exact outputs of the paper's entry points at a
// reduced, fixed-seed scale, so a refactor that moves any reported number
// fails here rather than slipping through the shape-and-direction checks.
// Values are written with strconv's shortest round-trip formatting, so the
// comparison is bit-exact. Regenerate deliberately with:
//
//	go test ./internal/sim -run TestExperimentGolden -update

// goldenTableText renders a table with every value in round-trip precision:
// a title line, a tab-separated header, then one tab-separated line per row.
func goldenTableText(t *Table) string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n\t")
	b.WriteString(strings.Join(t.Columns, "\t"))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(r.Name)
		for _, v := range r.Values {
			b.WriteByte('\t')
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkTableGolden compares a table against testdata/<name>, or rewrites
// the file under -update.
func checkTableGolden(t *testing.T, name string, tb *Table) {
	t.Helper()
	got := goldenTableText(tb)
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden (regenerate deliberately with -update):\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

func TestExperimentGolden(t *testing.T) {
	pair := quickOptions()
	pair.Benchmarks = profiles("mcf", "sphinx3")
	horizon := quickOptions()
	horizon.Windows = 1
	cases := []struct {
		name string
		slow bool
		run  func() (*Table, error)
	}{
		{"golden_table1.txt", false, func() (*Table, error) { return RunTable1(1, 20000), nil }},
		{"golden_fig4.txt", false, func() (*Table, error) { return RunFig4(), nil }},
		{"golden_fig6.txt", false, func() (*Table, error) { return RunFig6(quickOptions()), nil }},
		{"golden_fig14.txt", false, func() (*Table, error) { return RunFig14(pair) }},
		{"golden_fig15.txt", false, func() (*Table, error) { return RunFig15(pair) }},
		{"golden_fig16.txt", false, func() (*Table, error) { return RunFig16(pair) }},
		{"golden_fig17.txt", false, func() (*Table, error) { return RunFig17(pair) }},
		{"golden_fig18.txt", false, func() (*Table, error) { return RunFig18(pair) }},
		{"golden_fig19.txt", true, func() (*Table, error) { return RunFig19(quickOptions()) }},
		{"golden_longhorizon.txt", false, func() (*Table, error) { return RunLongHorizon(horizon) }},
		{"golden_comparison.txt", true, func() (*Table, error) { return RunComparison(quickOptions()) }},
		{"golden_ablation.txt", false, func() (*Table, error) { return RunAblations(quickOptions()) }},
		{"golden_power.txt", false, func() (*Table, error) { return RunPowerBreakdown(pair) }},
		{"golden_cmdlevel.txt", false, func() (*Table, error) { return RunCmdLevelTable(pair) }},
		{"golden_fig5.txt", false, func() (*Table, error) { return RunFig5(), nil }},
		{"golden_metrics.txt", false, func() (*Table, error) { return RunMetricsDump(pair) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.slow && testing.Short() {
				t.Skip("capacity sweep up to 32 MB is slow")
			}
			tb, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			checkTableGolden(t, c.name, tb)
		})
	}
}
