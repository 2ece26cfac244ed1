package refresh

import (
	"math/rand"
	"reflect"
	"testing"

	"zerorefresh/internal/dram"
)

// driveCommands runs steps [from, to) of a fixed stream: each step may
// store one word and note the write, then issues one auto-refresh command
// per bank at the per-bank command cadence. It returns the commands'
// results.
func driveCommands(m *dram.Module, e *Engine, from, to int) []ARResult {
	cfg := m.Config()
	interval := cfg.Timing.TRET / dram.Time(e.NumARs())
	var out []ARResult
	for k := from; k < to; k++ {
		rng := rand.New(rand.NewSource(int64(k)))
		now := dram.Time(k) * interval
		if rng.Intn(2) == 0 {
			bank, row := rng.Intn(cfg.Banks), rng.Intn(cfg.RowsPerBank)
			m.WriteWord(rng.Intn(dram.LineChips), bank, row, rng.Intn(cfg.WordsPerChipRow()), rng.Uint64()&0xff, now)
			e.NoteWrite(bank, row)
		}
		for bank := 0; bank < cfg.Banks; bank++ {
			out = append(out, e.AutoRefresh(bank, now))
		}
	}
	return out
}

// TestCopyFromMatchesSource copies an engine part-way through a retention
// window into an engine over a copy of its module: the AR cursors stand
// mid-window, writes have set access bits, and steps carry skip runs.
// Driven on alike, the two must issue identical commands, report the same
// refreshed counts per set, and end with the same counters and
// discharged-run histogram.
func TestCopyFromMatchesSource(t *testing.T) {
	ma := testModule()
	ea := testEngine(ma)
	driveCommands(ma, ea, 0, 3*ea.NumARs()/2)
	mb := dram.New(ma.Config())
	eb := testEngine(mb)
	for _, err := range []error{
		mb.CopyFrom(ma), mb.Metrics().CopyFrom(ma.Metrics()),
		eb.CopyFrom(ea), eb.Metrics().CopyFrom(ea.Metrics()),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(ea.SetRefreshedCounts(), eb.SetRefreshedCounts()) {
		t.Fatal("per-set refreshed counts differ after the copy")
	}
	ra := driveCommands(ma, ea, 3*ea.NumARs()/2, 5*ea.NumARs())
	rb := driveCommands(mb, eb, 3*ea.NumARs()/2, 5*ea.NumARs())
	if !reflect.DeepEqual(ra, rb) {
		t.Fatal("the copy issued different commands")
	}
	if !reflect.DeepEqual(ea.Metrics().Snapshot(), eb.Metrics().Snapshot()) {
		t.Fatalf("engine counters differ:\n%v\nvs\n%v", ea.Metrics().Snapshot(), eb.Metrics().Snapshot())
	}
	if ea.Stats().StepsSkipped == 0 || ea.Metrics().Snapshot().Counter("refresh.steps_refreshed") == 0 {
		t.Fatal("the drive never both skipped and refreshed a step")
	}
	if err := NewEngine(mb, Config{RowsPerAR: 64}).CopyFrom(ea); err == nil {
		t.Fatal("copy between engines of different configurations succeeded")
	}
}
