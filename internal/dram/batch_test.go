package dram

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"zerorefresh/internal/attr"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

// Differential tests for the line-granular batched operations: every batched
// entry point is driven against the scalar loop it replaces on a twin
// module, and the two must agree on returned values, final cell state,
// counter totals and the exact trace-event stream.

// twinModules builds two identical modules with identical spared rows and
// their own single-shard tracers.
func twinModules(t *testing.T, cfg Config, sparedEvery int) (a, b *Module, ta, tb *trace.Tracer) {
	t.Helper()
	a, b = New(cfg), New(cfg)
	ta, tb = trace.New(1<<18), trace.New(1<<18)
	a.SetTracer(ta.NewShard("rank"))
	b.SetTracer(tb.NewShard("rank"))
	if sparedEvery > 0 {
		for r := 0; r < cfg.RowsPerBank; r += sparedEvery {
			a.MarkSpared(r)
			b.MarkSpared(r)
		}
	}
	return a, b, ta, tb
}

// compareTwins checks that two modules driven through equivalent operation
// sequences ended in the same observable state.
func compareTwins(t *testing.T, a, b *Module, ta, tb *trace.Tracer) {
	t.Helper()
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats diverged:\nbatched %+v\nscalar  %+v", sa, sb)
	}
	if sa, sb := withoutStorageMetrics(a.Metrics().Snapshot()), withoutStorageMetrics(b.Metrics().Snapshot()); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("metrics snapshots diverged:\nbatched %+v\nscalar  %+v", sa, sb)
	}
	attr.MustMatch(t, "batched vs scalar", ta.Events(), tb.Events())
	cfg := a.Config()
	for chip := 0; chip < LineChips; chip++ {
		for bank := 0; bank < cfg.Banks; bank++ {
			for row := 0; row < cfg.RowsPerBank; row++ {
				ra := a.bankOf(chip, bank)[row]
				rb := b.bankOf(chip, bank)[row]
				if (ra == nil) != (rb == nil) {
					t.Fatalf("row (%d,%d,%d) materialization diverged", chip, bank, row)
				}
				if ra == nil {
					continue
				}
				if ra.chargedWords != rb.chargedWords || ra.lastRecharge != rb.lastRecharge ||
					ra.everDecayed != rb.everDecayed || !reflect.DeepEqual(ra.words, rb.words) {
					t.Fatalf("row (%d,%d,%d) state diverged:\nbatched %+v\nscalar  %+v", chip, bank, row, ra, rb)
				}
			}
		}
	}
}

// withoutStorageMetrics strips the dram.storage.* samples from a snapshot.
// The memory-footprint view describes the storage *layout* — arena slots in
// use, CoW sentinel aliases — which the batched and scalar drives reach by
// different routes (a batched fill aliases a sentinel where the scalar loop
// stores every word) even though the simulated cell state is identical.
// Everything else in the snapshot must still match bit for bit.
func withoutStorageMetrics(s metrics.Snapshot) metrics.Snapshot {
	out := s
	out.Samples = nil
	for _, smp := range s.Samples {
		if !strings.HasPrefix(smp.Name, "dram.storage.") {
			out.Samples = append(out.Samples, smp)
		}
	}
	return out
}

// scalarWriteLine is the scalar reference for WriteLineWords: eight
// WriteWord calls plus the same all-discharged reduction.
func scalarWriteLine(m *Module, bank, row, slot int, words [LineChips]uint64, now Time) bool {
	all := true
	for chip := 0; chip < LineChips; chip++ {
		m.WriteWord(chip, bank, row, slot, words[chip], now)
		if !m.bankOf(chip, bank)[row].discharged() {
			all = false
		}
	}
	return all
}

// scalarRefreshGroup is the scalar reference for RefreshGroup: the refresh
// engine's per-chip Refresh + IsSpared loop.
func scalarRefreshGroup(m *Module, bank int, rows [LineChips]int, now Time) uint16 {
	var mask uint16
	for chip := 0; chip < LineChips; chip++ {
		if m.Refresh(chip, bank, rows[chip], now) && !m.IsSpared(rows[chip]) {
			mask |= 1 << chip
		}
	}
	return mask
}

func TestBatchedOpsMatchScalar(t *testing.T) {
	cfg := testConfig()
	batched, scalar, tb, ts := twinModules(t, cfg, 37)
	rng := rand.New(rand.NewSource(5))
	tret := cfg.Timing.TRET
	wordsPerRow := cfg.WordsPerChipRow()
	now := Time(0)
	for i := 0; i < 6000; i++ {
		// Advance time; one op in eight jumps past the retention deadline
		// so decay paths are exercised on charged rows.
		if rng.Intn(8) == 0 {
			now += tret + Time(rng.Int63n(int64(tret)))
		} else {
			now += Time(rng.Int63n(1000))
		}
		bank := rng.Intn(cfg.Banks)
		row := rng.Intn(cfg.RowsPerBank)
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // write line
			slot := rng.Intn(wordsPerRow)
			var words [LineChips]uint64
			for c := range words {
				switch rng.Intn(3) {
				case 0:
					words[c] = 0
				case 1:
					words[c] = ^uint64(0)
				default:
					words[c] = rng.Uint64()
				}
			}
			gb := batched.WriteLineWords(bank, row, slot, words, now)
			gs := scalarWriteLine(scalar, bank, row, slot, words, now)
			if gb != gs {
				t.Fatalf("op %d: WriteLineWords all-discharged %v, scalar %v", i, gb, gs)
			}
		case 4, 5, 6: // read line
			slot := rng.Intn(wordsPerRow)
			got := batched.ReadLineWords(bank, row, slot, now)
			for chip := 0; chip < LineChips; chip++ {
				if want := scalar.ReadWord(chip, bank, row, slot, now); got[chip] != want {
					t.Fatalf("op %d: ReadLineWords chip %d = %#x, scalar %#x", i, chip, got[chip], want)
				}
			}
		case 7, 8: // refresh a diagonal group
			var rows [LineChips]int
			base := row - row%LineChips
			for c := range rows {
				rows[c] = base + (c+row)%LineChips
			}
			gb := batched.RefreshGroup(bank, rows, now)
			gs := scalarRefreshGroup(scalar, bank, rows, now)
			if gb != gs {
				t.Fatalf("op %d: RefreshGroup mask %#x, scalar %#x", i, gb, gs)
			}
		default: // bulk row fill
			var words [LineChips]uint64
			if rng.Intn(2) == 0 {
				v := rng.Uint64()
				for c := range words {
					words[c] = v
				}
			}
			batched.FillRowWords(bank, row, words, now)
			for slot := 0; slot < wordsPerRow; slot++ {
				for chip := 0; chip < LineChips; chip++ {
					scalar.WriteWord(chip, bank, row, slot, words[chip], now)
				}
			}
		}
	}
	compareTwins(t, batched, scalar, tb, ts)
}

// TestBatchedOpsUntracedMatchScalar re-runs a short differential drive with
// tracing off, covering the hoisted nil-tracer guards.
func TestBatchedOpsUntracedMatchScalar(t *testing.T) {
	cfg := testConfig()
	batched, scalar := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(6))
	now := Time(0)
	for i := 0; i < 1500; i++ {
		now += Time(rng.Int63n(int64(cfg.Timing.TRET) / 2))
		bank := rng.Intn(cfg.Banks)
		row := rng.Intn(cfg.RowsPerBank)
		var words [LineChips]uint64
		for c := range words {
			words[c] = rng.Uint64()
		}
		slot := rng.Intn(cfg.WordsPerChipRow())
		if gb, gs := batched.WriteLineWords(bank, row, slot, words, now),
			scalarWriteLine(scalar, bank, row, slot, words, now); gb != gs {
			t.Fatalf("op %d: all-discharged diverged", i)
		}
		got := batched.ReadLineWords(bank, row, slot, now)
		for chip := 0; chip < LineChips; chip++ {
			if want := scalar.ReadWord(chip, bank, row, slot, now); got[chip] != want {
				t.Fatalf("op %d: read diverged on chip %d", i, chip)
			}
		}
	}
	if sa, sb := batched.Stats(), scalar.Stats(); sa != sb {
		t.Fatalf("stats diverged: %+v vs %+v", sa, sb)
	}
}

// TestBatchedBoundsPanics pins the single-guard bounds checks.
func TestBatchedBoundsPanics(t *testing.T) {
	m := New(testConfig())
	cases := map[string]func(){
		"bad bank": func() { m.WriteLineWords(-1, 0, 0, [LineChips]uint64{}, 0) },
		"bad row":  func() { m.ReadLineWords(0, m.Config().RowsPerBank, 0, 0) },
		"bad slot": func() { m.WriteLineWords(0, 0, m.Config().WordsPerChipRow(), [LineChips]uint64{}, 0) },
		"bad group row": func() {
			m.RefreshGroup(0, [LineChips]int{0, 1, 2, 3, 4, 5, 6, -1}, 0)
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
