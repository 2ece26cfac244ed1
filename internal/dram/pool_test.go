package dram

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// poisonedPool returns a pool holding, for cfg's geometry, tables recycled
// row tables and chunks recycled arena chunks, all poison: every table
// entry a touched, decayed row with charged words and a slot, every chunk
// word charged.
func poisonedPool(cfg Config, tables, chunks int) *Pool {
	p := NewPool()
	for i := 0; i < tables; i++ {
		rows := make([]row, LineChips*cfg.Banks*cfg.RowsPerBank)
		for j := range rows {
			rows[j] = row{lastRecharge: Time(j), slot: 1 + int32(j%5), charged: 3, flags: rowTouched | rowDecayed}
		}
		p.putTable(rows)
	}
	var s bankSlab
	s.init(nil, nil, cfg.WordsPerChipRow(), LineChips*cfg.RowsPerBank)
	cs := make([][]uint64, chunks)
	for i := range cs {
		cs[i] = make([]uint64, s.chunkRows*s.wordsPerRow)
		fillWords(cs[i], chargedFill)
	}
	p.putChunks(cs)
	return p
}

// requireSameState fails unless a and b hold the same cells, row table,
// slots and storage layout (requireSameModule), and the same counters,
// histogram and dram.storage.* gauges; a must also pass the storage audit.
func requireSameState(t *testing.T, phase string, a, b *Module) {
	t.Helper()
	requireSameModule(t, a, b)
	if sa, sb := a.Metrics().Snapshot(), b.Metrics().Snapshot(); !reflect.DeepEqual(sa, sb) {
		t.Fatalf("%s: metrics diverged:\npooled   %+v\nunpooled %+v", phase, sa, sb)
	}
	checkStorageInvariants(t, a)
}

// replayIdle replays five idle windows of one auto-refresh command's groups
// in every bank of m, the first at now.
func replayIdle(m *Module, now Time) {
	for bank := 0; bank < m.cfg.Banks; bank++ {
		m.ReplayRefreshGroups(bank, commandGroups(m, 0), now, m.cfg.Timing.TRET/2, 5)
	}
}

// TestPoisonedPoolMatchesUnpooled drives a module built from a pool of
// poisoned storage and an unpooled twin through the same random range and
// line stores, refreshes, idle replays and sparing; then clones both,
// recycles the originals and drives the clones on, whose arenas grow into
// the recycled chunks; then builds a second pair from the recycled row
// table. After each phase the twins must hold the same cells, row table,
// slots, gauges and counters. A row table taken from the pool without
// clearing fails at the first check.
func TestPoisonedPoolMatchesUnpooled(t *testing.T) {
	for name, cfg := range copyGeometries() {
		t.Run(name, func(t *testing.T) {
			tret := cfg.Timing.TRET
			pool := poisonedPool(cfg, 2, 8)
			a, b := NewPooled(cfg, pool), New(cfg)
			requireSameState(t, "new", a, b)
			driveRangeStores(t, rand.New(rand.NewSource(1)), a, b, 300)
			requireSameState(t, "range stores", a, b)
			for _, m := range []*Module{a, b} {
				driveOps(m, 3000, 6000)
				replayIdle(m, 100*tret)
			}
			requireSameState(t, "ops and idle replay", a, b)

			ca, err := a.Clone()
			if err != nil {
				t.Fatal(err)
			}
			cb, err := b.Clone()
			if err != nil {
				t.Fatal(err)
			}
			requireSameState(t, "clone", ca, cb)
			before := a.Metrics().Snapshot()
			a.Recycle()
			b.Recycle()
			if after := a.Metrics().Snapshot(); !reflect.DeepEqual(before, after) {
				t.Fatalf("Recycle moved the registry:\nbefore %+v\nafter  %+v", before, after)
			}
			for _, m := range []*Module{ca, cb} {
				driveOps(m, 6500, 9500)
				replayIdle(m, 160*tret)
			}
			requireSameState(t, "clones after recycle", ca, cb)

			a2, b2 := NewPooled(cfg, pool), New(cfg)
			requireSameState(t, "new from recycled", a2, b2)
			for _, m := range []*Module{a2, b2} {
				driveOps(m, 0, 3000)
			}
			requireSameState(t, "ops from recycled", a2, b2)
		})
	}
}

// TestRecycledModuleRejectsCopies checks that a recycled module can be
// neither cloned, nor copied from or into, and that recycling twice gives
// its storage back once.
func TestRecycledModuleRejectsCopies(t *testing.T) {
	cfg := testConfig()
	pool := NewPool()
	m := NewPooled(cfg, pool)
	driveOps(m, 0, 500)
	m.Recycle()
	m.Recycle()
	if n := len(pool.tables[LineChips*cfg.Banks*cfg.RowsPerBank]); n != 1 {
		t.Fatalf("recycling twice gave back %d row tables, want 1", n)
	}
	if _, err := m.Clone(); err == nil {
		t.Error("Clone of a recycled module succeeded")
	}
	if err := New(cfg).CopyFrom(m); err == nil {
		t.Error("CopyFrom a recycled module succeeded")
	}
	if err := m.CopyFrom(New(cfg)); err == nil {
		t.Error("CopyFrom into a recycled module succeeded")
	}
}

// TestPoolSharedAcrossGoroutines builds, clones and recycles modules from
// one pool on several goroutines, as a fan-out's units do, and requires
// each result to equal the unpooled run. Under -race it checks the pool's
// locking.
func TestPoolSharedAcrossGoroutines(t *testing.T) {
	cfg := testConfig()
	run := func(pool *Pool, seed int) *Module {
		m := NewPooled(cfg, pool)
		driveOps(m, seed*1000, seed*1000+800)
		c, err := m.Clone()
		if err != nil {
			t.Error(err)
			return m
		}
		m.Recycle()
		driveOps(c, seed*1000+800, seed*1000+1200)
		return c
	}
	const workers = 4
	want := make([]*Module, workers)
	for i := range want {
		want[i] = run(nil, i)
	}
	pool := poisonedPool(cfg, 1, 4)
	for round := 0; round < 2; round++ {
		got := make([]*Module, workers)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = run(pool, i)
			}()
		}
		wg.Wait()
		for i, m := range got {
			requireSameState(t, "concurrent", m, want[i])
			m.Recycle()
		}
	}
}
