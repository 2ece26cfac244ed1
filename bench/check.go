package main

import (
	"bytes"
	"embed"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"zerorefresh/internal/sim"
)

// Goldens hold the exact output table (sim.Table.JSON) of each workload at
// seeds 1, 2 and 3. Regenerate them with -update after a change that is
// meant to move a reproduced number.
//
//go:embed testdata/*.json
var goldenFS embed.FS

func goldenName(workload string, seed uint64) string {
	return fmt.Sprintf("%s.seed%d.json", workload, seed)
}

// golden returns the committed output for (workload, seed), or nil when the
// seed has none.
func golden(workload string, seed uint64) []byte {
	b, err := goldenFS.ReadFile("testdata/" + goldenName(workload, seed))
	if err != nil {
		return nil
	}
	return b
}

// goldenSeeds are the seeds with committed goldens.
var goldenSeeds = []uint64{1, 2, 3}

// verifier checks each repetition of one run. A repetition fails if the
// experiment errors, a retention failure occurs, a workload invariant
// breaks, the output differs from the seed's golden, or it differs from
// the run's first correct repetition.
type verifier struct {
	w      *workloadSpec
	golden []byte
	first  []byte
}

func (v *verifier) check(t *sim.Table, err error, decayed bool) error {
	if err != nil {
		return err
	}
	if decayed {
		return errors.New("retention failure during the run")
	}
	if v.w.check != nil {
		if err := v.w.check(t); err != nil {
			return err
		}
	}
	out := []byte(t.JSON())
	if v.golden != nil && !bytes.Equal(out, v.golden) {
		return errors.New("output differs from the golden")
	}
	if v.first == nil {
		v.first = out
	} else if !bytes.Equal(out, v.first) {
		return errors.New("output differs from the run's first repetition")
	}
	return nil
}

// sameRows reports whether two tables hold bit-identical rows.
func sameRows(a, b *sim.Table) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("%d rows, want %d", len(a.Rows), len(b.Rows))
	}
	for i, ra := range a.Rows {
		rb := b.Rows[i]
		if ra.Name != rb.Name || len(ra.Values) != len(rb.Values) {
			return fmt.Errorf("row %d is %q/%d values, want %q/%d", i, ra.Name, len(ra.Values), rb.Name, len(rb.Values))
		}
		for j, v := range ra.Values {
			if math.Float64bits(v) != math.Float64bits(rb.Values[j]) {
				return fmt.Errorf("row %q column %d is %v, want %v", ra.Name, j, v, rb.Values[j])
			}
		}
	}
	return nil
}

// updateGoldens reruns each workload at every golden seed and rewrites its
// golden files under dir.
func updateGoldens(ws []*workloadSpec, dir string) error {
	for _, w := range ws {
		for _, seed := range goldenSeeds {
			o, decayed := guardDecays(w.options(seed))
			t, err := w.run(o)
			v := verifier{w: w}
			if err := v.check(t, err, decayed.Load()); err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			path := filepath.Join(dir, goldenName(w.name, seed))
			if err := os.WriteFile(path, v.first, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}
