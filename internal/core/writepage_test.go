package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
	"zerorefresh/internal/workload"
)

// TestFillPageMatchesLineWrites pins the row-burst page path against the
// line loop it replaced, on a traced two-rank system whose small cell
// groups put anti-cell rows in both ranks, under every combination of
// transform stages: FillPageFromProfile and CleansePage must leave the same
// metrics snapshot, and export the same NDJSON bytes, as one WriteLineAt
// per line. A refill after a skipped retention window makes bursts open on
// decaying chip-rows, and every filled page is cleansed, on true- and
// anti-cell rows alike, so the cleanse stores both the discharged and,
// without the cell-aware stage, a charged zero pattern.
func TestFillPageMatchesLineWrites(t *testing.T) {
	for opt := 0; opt < 8; opt++ {
		opts := transform.Options{EBDI: opt&1 != 0, BitPlane: opt&2 != 0, CellAware: opt&4 != 0}
		t.Run(fmt.Sprintf("ebdi=%v,bitplane=%v,cellaware=%v", opts.EBDI, opts.BitPlane, opts.CellAware), func(t *testing.T) {
			checkFillPageMatchesLineWrites(t, opts)
		})
	}
}

func checkFillPageMatchesLineWrites(t *testing.T, opts transform.Options) {
	mk := func() (*System, *trace.Tracer) {
		tr := trace.New(1 << 20)
		cfg := DefaultConfig(2 << 20)
		cfg.Ranks = 2
		cfg.CellGroupRows = 8
		cfg.Refresh.RowsPerAR = 4
		cfg.Transform = opts
		cfg.Trace = tr
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys, tr
	}
	rows, rowsTr := mk()
	lines, linesTr := mk()
	const seed = 7
	perPage := rows.DRAM.Config().LinesPerRow()
	lineFill := func(prof workload.Profile, page int, version uint64) {
		gen := prof.Lines(seed)
		base := rows.PageAddr(page)
		for ln := 0; ln < perPage; ln++ {
			data := gen.Line(uint64(page*perPage+ln), version)
			if err := lines.WriteLineAt(base+uint64(ln)*dram.LineBytes, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	n := rows.Pages()
	pages := []int{0, 1, 9, 17, n/2 - 1, n / 2, n/2 + 9, n - 1} // both ranks
	// Refills switch profiles, so a chip-row's charge often changes at a
	// content-dependent slot in the middle of a burst.
	for version, name := range []string{"mcf", "sphinx3", "tpch-q1"} {
		prof, _ := workload.ByName(name)
		for _, p := range pages {
			if err := rows.FillPageFromProfile(prof, p, seed, uint64(version)); err != nil {
				t.Fatal(err)
			}
			lineFill(prof, p, uint64(version))
		}
		if version == 1 {
			// Skip refresh for two retention windows: the next fills open
			// their bursts on charged chip-rows past the deadline.
			rows.Clock += 2 * rows.DRAM.Config().Timing.TRET
			lines.Clock = rows.Clock
			continue
		}
		rows.RunWindow()
		lines.RunWindow()
	}
	for _, p := range pages {
		if err := rows.CleansePage(p); err != nil {
			t.Fatal(err)
		}
		base := lines.PageAddr(p)
		for ln := 0; ln < perPage; ln++ {
			if err := lines.WriteLineAt(base+uint64(ln)*dram.LineBytes, [64]byte{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rows.DecayEvents() == 0 {
		t.Fatal("no fill decayed a chip-row; the burst's activation path went untested")
	}
	if a, b := rowsTr.Dropped(), linesTr.Dropped(); a != 0 || b != 0 {
		t.Fatalf("trace buffers overflowed (%d, %d dropped): grow the test buffers", a, b)
	}
	if a, b := rows.MetricsSnapshot(), lines.MetricsSnapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("metrics diverged:\nrow burst %+v\nline loop %+v", a, b)
	}
	var a, b bytes.Buffer
	if err := trace.WriteNDJSON(&a, rowsTr); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteNDJSON(&b, linesTr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("NDJSON exports diverged (%d vs %d bytes)", a.Len(), b.Len())
	}
}

// BenchmarkFillPage times production's page fill on one 16 MB system:
// content generation into the staging row, the transform's encode, the
// chip mapping's scatter and the row burst, pages in order as a sweep's
// populate writes them with one held generator. A first pass materializes
// every row, so the loop measures the steady state; each later pass refills
// with a new version.
func BenchmarkFillPage(b *testing.B) {
	sys, err := NewSystem(DefaultConfig(16 << 20))
	if err != nil {
		b.Fatal(err)
	}
	prof, _ := workload.ByName("mcf")
	gen := prof.Lines(1)
	n := sys.Pages()
	for p := 0; p < n; p++ {
		if err := sys.FillPage(&gen, p, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.FillPage(&gen, i%n, uint64(1+i/n)); err != nil {
			b.Fatal(err)
		}
	}
}
