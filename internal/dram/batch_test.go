package dram

import (
	"math/rand"
	"reflect"
	"testing"

	"zerorefresh/internal/attr"
	"zerorefresh/internal/trace"
)

// Differential tests for the line- and row-granular batched operations:
// every batched entry point is driven against the scalar loop it replaces
// on a twin module, and StoreRange against the per-slot reference store
// below, and the two must agree on returned values, final cell state,
// storage layout, counter totals and the exact trace-event stream.

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
// sequences ended in the same observable state: stats, metrics (the
// dram.storage.* gauges among them), the trace streams when the twins are
// traced, every row's cells, and the storage layout — each row's slot,
// each slab's free list, bump cursor and chunk words.
func compareTwins(t *testing.T, a, b *Module, ta, tb *trace.Tracer) {
	t.Helper()
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats diverged:\nbatched %+v\nscalar  %+v", sa, sb)
	}
	if sa, sb := a.Metrics().Snapshot(), b.Metrics().Snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("metrics snapshots diverged:\nbatched %+v\nscalar  %+v", sa, sb)
	}
	if ta != nil {
		attr.MustMatch(t, "batched vs scalar", ta.Events(), tb.Events())
	}
	requireSameModule(t, a, b)
	for i := range a.slabs {
		if !reflect.DeepEqual(a.slabs[i].chunks, b.slabs[i].chunks) {
			t.Fatalf("bank %d: arena words diverged", i)
		}
	}
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

// Write is the per-slot reference store: it stores words[c] into word slot
// `slot` of the burst's row in chip c and reports whether every chip-row is
// fully discharged afterwards. The first Write activates each chip-row —
// a decay returns its slot there — and every later slab operation happens
// at the slot and chip whose store moves the charged count to or from
// zero, each fresh slot pre-filled with the discharged pattern. A
// StoreRange must leave exactly what a loop of Write over its slots
// leaves, events included.
func (w *RowWrite) Write(slot int, words *[LineChips]uint64) bool {
	m := w.m
	m.checkLine(w.bank, w.rowIdx, slot)
	ct := w.ct
	traced := m.tr != nil
	all := true
	for chip := 0; chip < LineChips; chip++ {
		r := w.rows[chip]
		if r == nil {
			b := m.bankOf(chip, w.bank)
			if r = b[w.rowIdx]; r == nil {
				r = m.slabs[w.bank].newRow(chip, w.rowIdx, w.now)
				b[w.rowIdx] = r
			} else if r.chargedWords > 0 && w.now-r.lastRecharge > m.cfg.Timing.TRET {
				r.decay()
				w.decays++
				if traced {
					m.tr.Emit(traceRetentionViolation(w.now, chip, w.bank, w.rowIdx))
				}
			}
			r.lastRecharge = w.now
			w.rows[chip] = r
		}
		before := r.chargedWords == 0
		after := r.writeWord(slot, words[chip], ct)
		if !after {
			all = false
		}
		if traced && before != after {
			m.tr.Emit(traceChargeTransition(w.now, chip, w.bank, w.rowIdx, after))
		}
	}
	w.slots++
	return all
}

// writeRange stores lines into slots first.. through the reference store,
// slot by slot.
func writeRange(w *RowWrite, first int, lines [][LineChips]uint64) bool {
	all := true
	for i := range lines {
		all = w.Write(first+i, &lines[i])
	}
	return all
}

// WriteLineWords stores one scattered cacheline into word slot `slot` of
// (bank, row) in all LineChips chips as a one-slot burst — the store
// Controller.WriteLine makes — and reports whether every chip-row is fully
// discharged afterwards.
func (m *Module) WriteLineWords(bank, rowIdx, slot int, words [LineChips]uint64, now Time) bool {
	w := m.BeginRowWrite(bank, rowIdx, now)
	all := StoreRange(&w, slot, [][LineChips]uint64{words})
	w.End()
	return all
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

// burstFill stores words into every slot of (bank, row) through one
// full-row StoreRange, as the controller stores a page of identical lines.
// Rows of up to 64 words are staged on the stack.
func burstFill(m *Module, bank, row int, words [LineChips]uint64, now Time) {
	var buf [64][LineChips]uint64
	lines := buf[:]
	if m.wordsPerRow > len(buf) {
		lines = make([][LineChips]uint64, m.wordsPerRow)
	}
	lines = lines[:m.wordsPerRow]
	for i := range lines {
		lines[i] = words
	}
	w := m.BeginRowWrite(bank, row, now)
	StoreRange(&w, 0, lines)
	w.End()
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
			burstFill(batched, bank, row, words, now)
			for slot := 0; slot < wordsPerRow; slot++ {
				for chip := 0; chip < LineChips; chip++ {
					scalar.WriteWord(chip, bank, row, slot, words[chip], now)
				}
			}
		}
	}
	compareTwins(t, batched, scalar, tb, ts)
}

// rangeWord draws one stored word: the row's discharged pattern, zero,
// all-ones, value-local around base, or random.
func rangeWord(rng *rand.Rand, d, base uint64) uint64 {
	switch rng.Intn(5) {
	case 0:
		return d
	case 1:
		return 0
	case 2:
		return ^uint64(0)
	case 3:
		return base + uint64(rng.Intn(16)) - 8
	default:
		return rng.Uint64()
	}
}

// randomRange draws a store's slots: a whole row, a partial range or a
// single slot.
func randomRange(rng *rand.Rand, wordsPerRow int) (first, n int) {
	switch rng.Intn(3) {
	case 0:
		return 0, wordsPerRow
	case 1:
		n = 1 + rng.Intn(wordsPerRow)
		return rng.Intn(wordsPerRow - n + 1), n
	default:
		return rng.Intn(wordsPerRow), 1
	}
}

// randomColumns fills lines chip column by chip column. A column is all
// discharged (a cleanse), sparse (a few charged words among discharged
// ones, so a row's count can reach zero part-way and leave it again) or
// dense.
func randomColumns(rng *rand.Rand, lines [][LineChips]uint64, d uint64) {
	for chip := 0; chip < LineChips; chip++ {
		mode := rng.Intn(4)
		base := rng.Uint64()
		for i := range lines {
			v := d
			switch {
			case mode == 1 && rng.Intn(8) == 0, mode >= 2:
				v = rangeWord(rng, d, base)
			}
			lines[i][chip] = v
		}
	}
}

// driveRangeStores opens ops bursts on both modules, each of one to three
// random range stores — StoreRange on a, the per-slot reference on b — over
// 64 rows of both cell types in two banks, so bursts revisit charged rows
// and a bank's arena grows past a chunk. One burst in four
// comes after a retention deadline, so its activation decays charged
// chip-rows. Every store's all-discharged result must agree.
func driveRangeStores(t *testing.T, rng *rand.Rand, a, b *Module, ops int) {
	t.Helper()
	cfg := a.Config()
	tret := cfg.Timing.TRET
	wpr := cfg.WordsPerChipRow()
	lines := make([][LineChips]uint64, wpr)
	now := Time(0)
	for op := 0; op < ops; op++ {
		if rng.Intn(4) == 0 {
			now += tret + Time(rng.Int63n(int64(tret)))
		} else {
			now += Time(rng.Int63n(1000))
		}
		bank := rng.Intn(2)
		row := rng.Intn(64) * (cfg.RowsPerBank / 64)
		d := cfg.CellTypeOf(row).DischargedWord()
		wa, wb := a.BeginRowWrite(bank, row, now), b.BeginRowWrite(bank, row, now)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			first, n := randomRange(rng, wpr)
			randomColumns(rng, lines[:n], d)
			ga := StoreRange(&wa, first, lines[:n])
			gb := writeRange(&wb, first, lines[:n])
			if ga != gb {
				t.Fatalf("op %d: store [%d,%d) of (%d,%d): all-discharged %v, reference %v", op, first, first+n, bank, row, ga, gb)
			}
		}
		wa.End()
		wb.End()
	}
}

// TestRowBurstMatchesScalar drives random range stores — whole rows,
// partial ranges, single slots, rows revisited after a retention deadline —
// against the per-slot reference store on a twin module, traced and
// untraced, and requires identical cells, counters, events and storage
// layout.
func TestRowBurstMatchesScalar(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(map[bool]string{false: "untraced", true: "traced"}[traced], func(t *testing.T) {
			cfg := testConfig()
			a, b := New(cfg), New(cfg)
			var ta, tb *trace.Tracer
			if traced {
				a, b, ta, tb = twinModules(t, cfg, 29)
			}
			driveRangeStores(t, rand.New(rand.NewSource(7)), a, b, 600)
			if a.Stats().DecayEvents == 0 {
				t.Fatal("no burst decayed a chip-row; the activation path went untested")
			}
			if len(a.slabs[0].chunks) < 2 {
				t.Fatal("bank 0's arena never grew past one chunk")
			}
			compareTwins(t, a, b, ta, tb)
			checkStorageInvariants(t, a)
		})
	}
}

// TestRowStoreClaimsInSlotOrder is the case a store that claims slots in
// chip order gets wrong: bank 0's arena is exactly one full chunk with no
// free slot, and one burst discharges chip 1's row at slot 0 and charges
// chip 0's fresh row at slot 5. The reference returns chip 1's slot first
// and reuses it for chip 0; claiming for chip 0 first would reserve a
// second chunk.
func TestRowStoreClaimsInSlotOrder(t *testing.T) {
	cfg := testConfig()
	a, b := New(cfg), New(cfg)
	const row = 31 // a true-cell row: discharged is zero
	wpr := cfg.WordsPerChipRow()
	charged := uniformLine(chargedFill)
	for _, m := range []*Module{a, b} {
		for r := 0; r < row; r++ {
			burstFill(m, 0, r, charged, 0) // 31 rows x 8 chips = 248 slots
		}
		line := charged
		line[0] = 0
		m.WriteLineWords(0, row, 0, line, 0)                             // chips 1..7 of row 31: 255 slots
		m.WriteLineWords(0, row+1, 0, [LineChips]uint64{chargedFill}, 0) // chip 0 of row 32: 256
		if s := &m.slabs[0]; s.next != int32(s.chunkRows) || len(s.free) != 0 || len(s.chunks) != 1 {
			t.Fatalf("setup: bank 0 cursor %d, %d free, %d chunks; want one full chunk", s.next, len(s.free), len(s.chunks))
		}
	}
	lines := make([][LineChips]uint64, wpr)
	for i := range lines {
		lines[i] = charged
		lines[i][1] = 0 // chip 1 held one charged word, at slot 0: freed at slot 0
		if i < 5 {
			lines[i][0] = 0 // chip 0's first charged word is at slot 5
		}
	}
	wa, wb := a.BeginRowWrite(0, row, 1), b.BeginRowWrite(0, row, 1)
	StoreRange(&wa, 0, lines)
	writeRange(&wb, 0, lines)
	wa.End()
	wb.End()
	compareTwins(t, a, b, nil, nil)
	if n := len(a.slabs[0].chunks); n != 1 {
		t.Fatalf("store reserved %d chunks, want the one the freed slot fits in", n)
	}
}

// TestRowStoreTransientZeroReleases is the case a store that keeps a slot
// through a transient zero gets wrong: chip 1's row holds one charged word,
// at slot 0, and one burst discharges it at slot 0, charges chip 0's fresh
// row at slot 2 and charges chip 1 again at slot 5. The reference returns
// chip 1's slot at slot 0, hands it to chip 0 at slot 2 and claims a new
// one for chip 1 at slot 5.
func TestRowStoreTransientZeroReleases(t *testing.T) {
	cfg := testConfig()
	a, b := New(cfg), New(cfg)
	const row = 40 // a true-cell row: discharged is zero
	for _, m := range []*Module{a, b} {
		m.WriteLineWords(0, row, 0, [LineChips]uint64{1: chargedFill}, 0)
	}
	lines := make([][LineChips]uint64, cfg.WordsPerChipRow())
	lines[2][0] = chargedFill
	lines[5][1] = chargedFill
	wa, wb := a.BeginRowWrite(0, row, 1), b.BeginRowWrite(0, row, 1)
	StoreRange(&wa, 0, lines)
	writeRange(&wb, 0, lines)
	wa.End()
	wb.End()
	compareTwins(t, a, b, nil, nil)
	if ra, rb := a.bankOf(0, 0)[row], a.bankOf(1, 0)[row]; ra.slot != 0 || rb.slot != 1 {
		t.Fatalf("chip 0 took slot %d and chip 1 slot %d; want chip 1's old slot 0 reused by chip 0", ra.slot, rb.slot)
	}
}

// FuzzRowStoreMatchesReference runs up to 255 random bursts of range
// stores, seeded by the input, against the per-slot reference on a traced
// or untraced twin: whole rows, partial ranges and single slots of words
// that are discharged, zero, all-ones, value-local or random, on rows of
// both cell types.
func FuzzRowStoreMatchesReference(f *testing.F) {
	f.Add(int64(1), false, uint8(60))
	f.Add(int64(2), true, uint8(60))
	f.Fuzz(func(t *testing.T, seed int64, traced bool, ops uint8) {
		cfg := testConfig()
		a, b := New(cfg), New(cfg)
		var ta, tb *trace.Tracer
		if traced {
			a, b, ta, tb = twinModules(t, cfg, 29)
		}
		driveRangeStores(t, rand.New(rand.NewSource(seed)), a, b, int(ops))
		compareTwins(t, a, b, ta, tb)
		checkStorageInvariants(t, a)
	})
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
		"bad burst slot": func() {
			w := m.BeginRowWrite(0, 0, 0)
			StoreRange(&w, -1, make([][LineChips]uint64, 1))
		},
		"burst past the row": func() {
			w := m.BeginRowWrite(0, 0, 0)
			StoreRange(&w, 1, make([][LineChips]uint64, m.Config().WordsPerChipRow()))
		},
		"empty burst": func() {
			w := m.BeginRowWrite(0, 0, 0)
			StoreRange(&w, 0, [][LineChips]uint64{})
		},
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
