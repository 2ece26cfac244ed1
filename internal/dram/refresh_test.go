package dram

import (
	"math/rand"
	"testing"

	"zerorefresh/internal/trace"
)

// Differential tests for the command-sized refresh calls: RefreshGroups
// over a random group list must leave exactly what one scalar Refresh +
// IsSpared loop per group leaves, in group order, and ReplayRefreshGroups
// exactly what `windows` such loops leave — cells, table entries, slots and
// free lists, storage gauges, counters, histogram buckets, decays and trace
// events, on traced and untraced modules.

// refreshTwins builds two identical modules, traced or not.
func refreshTwins(t *testing.T, traced bool) (a, b *Module, ta, tb *trace.Tracer) {
	t.Helper()
	cfg := testConfig()
	if traced {
		return twinModules(t, cfg, 0)
	}
	return New(cfg), New(cfg), nil, nil
}

// stepGroup returns the diagonal group of refresh step n: the staggered
// wrapped diagonal of Fig. 8, or row n in every chip.
func stepGroup(n int, staggered bool) (rows [LineChips]int) {
	for c := range rows {
		rows[c] = n
		if staggered {
			rows[c] = n/LineChips*LineChips + (c+n)%LineChips
		}
	}
	return rows
}

// commandSteps draws the groups of one auto-refresh command: an increasing
// subset of up to 48 consecutive steps among the first 128, whose chip-rows
// are therefore distinct, as the engine passes the steps it refreshes.
func commandSteps(rng *rand.Rand, groups [][LineChips]int) [][LineChips]int {
	staggered := rng.Intn(4) != 0
	lo := rng.Intn(128/LineChips) * LineChips
	span := 1 + rng.Intn(48)
	groups = groups[:0]
	for n := lo; n < lo+span && n < 128; n++ {
		if rng.Intn(4) != 0 {
			groups = append(groups, stepGroup(n, staggered))
		}
	}
	return groups
}

// anyGroups draws a group list RefreshGroups must serve in order even when
// it repeats chip-rows: up to 16 groups of random rows among the first 128.
func anyGroups(rng *rand.Rand, groups [][LineChips]int) [][LineChips]int {
	groups = groups[:1+rng.Intn(16)]
	for i := range groups {
		for c := range groups[i] {
			groups[i][c] = rng.Intn(128)
		}
	}
	return groups
}

// driveRefreshes applies ops random operations to a and b alike, except
// that refreshes go through RefreshGroups and ReplayRefreshGroups on a and
// through the scalar loops on b. Stores (whole rows, partial ranges and
// single slots of discharged, sparse or dense columns) and row sparing hit
// the first 128 rows of banks 0 and 1, true- and anti-cell, which the
// refresh groups cover; the other rows stay untouched. One op in four comes after a
// retention deadline, and one replay in four runs at a cadence longer than
// tRET, so charged rows decay on the first or on the second refresh.
func driveRefreshes(t *testing.T, rng *rand.Rand, a, b *Module, ops int) {
	t.Helper()
	cfg := a.Config()
	tret := cfg.Timing.TRET
	wpr := cfg.WordsPerChipRow()
	lines := make([][LineChips]uint64, wpr)
	groups := make([][LineChips]int, 128)
	masks := make([]uint16, len(groups))
	now := Time(0)
	for op := 0; op < ops; op++ {
		if rng.Intn(4) == 0 {
			now += tret + Time(rng.Int63n(int64(tret)))
		} else {
			now += Time(rng.Int63n(int64(tret) / 8))
		}
		bank, row := rng.Intn(2), rng.Intn(128)
		switch k := rng.Intn(10); {
		case k < 4: // store a range of the row
			first, n := randomRange(rng, wpr)
			randomColumns(rng, lines[:n], cfg.CellTypeOf(row).DischargedWord())
			for _, m := range []*Module{a, b} {
				w := m.BeginRowWrite(bank, row, now)
				StoreRange(&w, first, lines[:n])
				w.End()
			}
		case k == 4: // spare the row
			a.MarkSpared(row)
			b.MarkSpared(row)
		case k < 8: // one command's groups, or any group list
			gs := commandSteps(rng, groups)
			if k == 7 {
				gs = anyGroups(rng, groups)
			}
			var ms []uint16
			if rng.Intn(3) != 0 {
				ms = masks[:len(gs)]
			}
			a.RefreshGroups(bank, gs, now, ms)
			for i, g := range gs {
				if want := scalarRefreshGroup(b, bank, g, now); ms != nil && ms[i] != want {
					t.Fatalf("op %d: group %d of %d (%v) mask %#x, scalar %#x", op, i, len(gs), g, ms[i], want)
				}
			}
		default: // replay idle windows of one command
			gs := commandSteps(rng, groups)
			windows := int64(1 + rng.Intn(6))
			period := tret/2 + Time(rng.Int63n(int64(tret)/2+1))
			if rng.Intn(4) == 0 {
				period = tret + 1 + Time(rng.Int63n(int64(tret)))
			}
			a.ReplayRefreshGroups(bank, gs, now, period, windows)
			for w := int64(0); w < windows; w++ {
				for _, g := range gs {
					scalarRefreshGroup(b, bank, g, now+Time(w)*period)
				}
			}
			now += Time(windows-1) * period
		}
	}
}

// TestRefreshGroupsMatchScalar runs the refresh drive on a few seeds long
// enough that every path fires — decays on the first and on the second
// replayed refresh, refreshes of untouched and spared rows — traced and
// untraced.
func TestRefreshGroupsMatchScalar(t *testing.T) {
	for _, traced := range []bool{false, true} {
		t.Run(map[bool]string{false: "untraced", true: "traced"}[traced], func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				a, b, ta, tb := refreshTwins(t, traced)
				driveRefreshes(t, rand.New(rand.NewSource(seed)), a, b, 400)
				if a.Stats().DecayEvents == 0 || a.MaterializedRows() == 0 || a.spared == nil {
					t.Fatalf("seed %d left %d decays, %d materialized rows, spared %v: a path went untested",
						seed, a.Stats().DecayEvents, a.MaterializedRows(), a.spared != nil)
				}
				compareTwins(t, a, b, ta, tb)
				checkStorageInvariants(t, a)
			}
		})
	}
}

// TestReplayDecaysInWindowOrder is the case a replay that applies each
// chip-row's decays together gets wrong: chip 0's row of the group is
// charged and fresh, so it decays only on the second refresh of a cadence
// longer than tRET, while chip 1's is overdue at the first. The window
// loop frees chip 1's slot 0 in the first window and chip 0's slot 1 in
// the second, and emits the violations in that order.
func TestReplayDecaysInWindowOrder(t *testing.T) {
	a, b, ta, tb := refreshTwins(t, true)
	tret := a.Config().Timing.TRET
	for _, m := range []*Module{a, b} {
		m.WriteLineWords(0, 1, 0, [LineChips]uint64{1: chargedFill}, 0)    // chip 1, row 1: slot 0
		m.WriteLineWords(0, 0, 0, [LineChips]uint64{0: chargedFill}, tret) // chip 0, row 0: slot 1
	}
	group := stepGroup(0, true) // row c in chip c
	first, period := tret+tret/2, 2*tret
	a.ReplayRefreshGroups(0, [][LineChips]int{group}, first, period, 3)
	for w := Time(0); w < 3; w++ {
		scalarRefreshGroup(b, 0, group, first+w*period)
	}
	compareTwins(t, a, b, ta, tb)
	if free := a.slabs[0].free; len(free) != 2 || free[0] != 0 || free[1] != 1 {
		t.Fatalf("free list %v, want [0 1]: chip 1's first-window decay before chip 0's second", free)
	}
}

// FuzzRefreshGroupsMatchScalar runs up to 255 random operations, seeded by
// the input, on a traced or untraced twin: stores, sparing, command-sized
// and arbitrary RefreshGroups calls and idle replays, each checked against
// the scalar loops it stands for.
func FuzzRefreshGroupsMatchScalar(f *testing.F) {
	f.Add(int64(1), false, uint8(80))
	f.Add(int64(2), true, uint8(80))
	f.Fuzz(func(t *testing.T, seed int64, traced bool, ops uint8) {
		a, b, ta, tb := refreshTwins(t, traced)
		driveRefreshes(t, rand.New(rand.NewSource(seed)), a, b, int(ops))
		compareTwins(t, a, b, ta, tb)
		checkStorageInvariants(t, a)
	})
}
