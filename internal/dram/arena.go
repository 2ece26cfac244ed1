package dram

import (
	"fmt"

	"zerorefresh/internal/metrics"
)

// Per-bank row arenas and word-level charge bitmaps — the storage layer
// behind the sparse row representation.
//
// Two mechanisms, each observationally invisible (the scalar twins in
// batch_test.go and internal/memctrl pin bit-identical cell state,
// counters, histograms and trace streams):
//
//  1. Arenas. Every materialized chip-row used to carry its own
//     individually allocated []uint64; at multi-GB geometries that is one
//     allocator round-trip and one pointer-chased cache line per row. Each
//     rank-level bank now owns a bankSlab shared by its chip-banks: row
//     words live in large contiguous chunks carved into fixed row-sized
//     slots (chunked growth keeps already-handed-out slices stable), and
//     row structs come from a chunked pool. A line op materializes its
//     LineChips sibling chip-rows back-to-back into consecutive slots, so the
//     rows it revisits are adjacent and refresh scans walk cache-linear
//     memory.
//
//  2. Charge bitmaps. Per chip-bank, bit r of `charged` mirrors
//     rows[r].chargedWords > 0; per rank-level bank, bit r of the shared
//     `liveAny` word is set once any chip materializes a row struct at r.
//     Group refreshes and idle replays test a whole diagonal group with a
//     few bitmap loads instead of eight pointer chases, and retention
//     deadline scans skip 64 rows per zero word.

const (
	// arenaChunkRows is the number of row slots carved per arena chunk
	// (clamped to the bank's row count for tiny geometries). 256 rows of
	// the default 64-word chip-row are 128 KB per chunk.
	arenaChunkRows = 256
	// noSlot marks a row whose words are nil: it owns no arena slot.
	noSlot = -1
)

// storageStats feeds the dram.storage.* metrics: the memory-footprint view
// of the arena representation.
type storageStats struct {
	materialized  int64 // chip-rows with words != nil
	reservedBytes int64 // bytes of arena chunks allocated
	usedBytes     int64 // bytes of arena slots currently owned by rows

	gMaterialized *metrics.Gauge
	gReserved     *metrics.Gauge
	gUsed         *metrics.Gauge
}

func newStorageStats(reg *metrics.Registry) storageStats {
	s := storageStats{
		gMaterialized: reg.Gauge("dram.storage.materialized_rows"),
		gReserved:     reg.Gauge("dram.storage.arena_reserved_bytes"),
		gUsed:         reg.Gauge("dram.storage.arena_used_bytes"),
	}
	// Always 0 (no row aliases shared storage); kept because committed goldens list it.
	reg.Counter("dram.storage.cow_hits")
	return s
}

func (s *storageStats) noteMaterialized(d int64) {
	s.materialized += d
	s.gMaterialized.Set(float64(s.materialized))
}

func (s *storageStats) noteReserved(d int64) {
	s.reservedBytes += d
	s.gReserved.Set(float64(s.reservedBytes))
}

func (s *storageStats) noteUsed(d int64) {
	s.usedBytes += d
	s.gUsed.Set(float64(s.usedBytes))
}

// bankSlab is the word and row-struct storage of one rank-level bank,
// shared by that bank's arenas across all chips. Sharing is what keeps a
// cacheline's sibling chip-rows adjacent in memory: a line write
// materializes all LineChips of them back-to-back, so they come out of
// consecutive slots of one chunk instead of LineChips distinct page-aligned
// slabs — one page walk per line op instead of one per chip.
type bankSlab struct {
	st          *storageStats
	wordsPerRow int
	chunkRows   int

	// chunks is the word slab: each chunk holds chunkRows slots of
	// wordsPerRow words. Slots are identified by a flat index; handed-out
	// row slices are full-capacity subslices of a chunk, so growth (which
	// only appends chunks) never moves them.
	chunks []([]uint64)
	next   int32   // first never-allocated slot
	free   []int32 // released slots, reused LIFO

	// structChunks is the row-struct pool. Row structs are never freed —
	// a touched row keeps its struct for the life of the module — so a
	// bump allocator suffices.
	structChunks []([]row)
	structNext   int
}

func (s *bankSlab) init(st *storageStats, wordsPerRow, maxSlots int) {
	s.st = st
	s.wordsPerRow = wordsPerRow
	s.chunkRows = arenaChunkRows
	if maxSlots < s.chunkRows {
		s.chunkRows = maxSlots
	}
}

// newRowStruct hands out a zeroed row struct from the chunked pool. The
// pool-grow make is the sanctioned lazy materialization pattern (sized
// once, reused), so the hot paths stay allocation-free in the steady state.
func (s *bankSlab) newRowStruct() *row {
	if s.structNext == len(s.structChunks)*s.chunkRows {
		s.structChunks = append(s.structChunks, make([]row, s.chunkRows))
	}
	r := &s.structChunks[s.structNext/s.chunkRows][s.structNext%s.chunkRows]
	s.structNext++
	return r
}

// alloc hands out one row-sized word slice from the slab, growing it by a
// chunk when both the free list and the bump region are exhausted. The
// returned slice is capacity-capped so appends can never spill into the
// neighbouring slot.
func (s *bankSlab) alloc() ([]uint64, int32) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if int(s.next) == len(s.chunks)*s.chunkRows {
			s.chunks = append(s.chunks, make([]uint64, s.chunkRows*s.wordsPerRow))
			s.st.noteReserved(int64(s.chunkRows*s.wordsPerRow) * WordBytes)
		}
		slot = s.next
		s.next++
	}
	s.st.noteUsed(int64(s.wordsPerRow) * WordBytes)
	return s.slotWords(slot), slot
}

// slotWords returns the capacity-capped word slice of one slot.
func (s *bankSlab) slotWords(slot int32) []uint64 {
	off := int(slot) % s.chunkRows * s.wordsPerRow
	return s.chunks[int(slot)/s.chunkRows][off : off+s.wordsPerRow : off+s.wordsPerRow]
}

// copyFrom makes s's chunks, bump cursor, free list and row-struct pool a
// slot-for-slot copy of src's. The copied row structs still point into
// src's module; Module.CopyFrom re-points them.
func (s *bankSlab) copyFrom(src *bankSlab) {
	s.chunks = make([][]uint64, len(src.chunks))
	for i, c := range src.chunks {
		s.chunks[i] = append([]uint64(nil), c...)
	}
	s.next = src.next
	s.free = append([]int32(nil), src.free...)
	s.structChunks = make([][]row, len(src.structChunks))
	for i, c := range src.structChunks {
		s.structChunks[i] = append([]row(nil), c...)
	}
	s.structNext = src.structNext
}

// releaseSlot returns one slot to the free list. Slots are not cleared on
// release; alloc-time materialization rewrites every word, so stale content
// can never leak into a fresh row.
func (s *bankSlab) releaseSlot(slot int32) {
	s.free = append(s.free, slot)
	s.st.noteUsed(-int64(s.wordsPerRow) * WordBytes)
}

// bankArena is one chip-bank's view of the storage layer: the shared
// rank-level-bank slab its rows' words and structs come from, and the
// charge/live bitmaps its refresh scans consult.
type bankArena struct {
	st          *storageStats
	wordsPerRow int

	// slab is the storage pool shared with the sibling chip-banks of the
	// same rank-level bank.
	slab *bankSlab

	// charged holds one bit per row of this chip-bank: set exactly when
	// the row's struct exists and chargedWords > 0. Retention-deadline
	// scans test 64 rows per load.
	charged []uint64
	// liveAny is shared by all chip-banks of the same rank-level bank:
	// bit r is set once ANY chip materializes a row struct at row r, and
	// never cleared (structs are permanent). A clear bit proves the whole
	// diagonal position is untouched in every chip, which is what lets
	// RefreshGroup and ReplayRefreshGroup renew an all-discharged group
	// without touching a single row pointer.
	liveAny []uint64
	// liveCnt counts the set bits of liveAny, shared the same way. The
	// group operations consult it to decide whether the bitmap probe is
	// worth attempting: on a densely materialized bank nearly every
	// diagonal group holds a live row, so they go straight to the dense
	// loop instead of paying for a probe that almost always fails.
	liveCnt *int32
}

func (a *bankArena) init(st *storageStats, wordsPerRow, rowsPerBank int, slab *bankSlab, liveAny []uint64, liveCnt *int32) {
	a.st = st
	a.wordsPerRow = wordsPerRow
	a.slab = slab
	a.charged = make([]uint64, (rowsPerBank+63)/64)
	a.liveAny = liveAny
	a.liveCnt = liveCnt
}

// newRow hands out a row struct from the shared pool, stamped with its
// owning arena and row index, and marks the bank's live bit.
func (a *bankArena) newRow(rowIdx int, now Time) *row {
	r := a.slab.newRowStruct()
	r.lastRecharge = now
	r.arena = a
	r.idx = int32(rowIdx)
	r.slot = noSlot
	if w, b := rowIdx>>6, uint64(1)<<(uint(rowIdx)&63); a.liveAny[w]&b == 0 {
		a.liveAny[w] |= b
		*a.liveCnt++
	}
	return r
}

// alloc and releaseSlot delegate to the shared slab; they exist so row.go
// only ever talks to its owning arena.
func (a *bankArena) alloc() ([]uint64, int32) { return a.slab.alloc() }

func (a *bankArena) releaseSlot(slot int32) { a.slab.releaseSlot(slot) }

func (a *bankArena) setCharged(idx int32) {
	a.charged[idx>>6] |= 1 << (uint(idx) & 63)
}

func (a *bankArena) clearCharged(idx int32) {
	a.charged[idx>>6] &^= 1 << (uint(idx) & 63)
}

// CopyFrom makes m's cell state and storage layout equal to src's,
// replacing whatever m held. m must be a module of src's Config; CopyFrom
// returns an error otherwise. Every bank's word chunks, bump cursor and
// free list are copied slot for slot, so m reports the same
// dram.storage.* footprint and reuses slots in the same order src would.
// The row structs are copied in pool order and re-pointed at m's slots and
// arenas; the charge and live bitmaps, the live counts and the spared rows
// are copied, so m shares no storage with src.
//
// The operation counters live in m's registry (Metrics) and are not
// touched: the composition root copies them with metrics.Registry.CopyFrom.
// Neither is the tracer, which stays m's own.
func (m *Module) CopyFrom(src *Module) error {
	if m.cfg != src.cfg {
		return fmt.Errorf("dram: copy of a %+v module into a %+v module", src.cfg, m.cfg)
	}
	for _, rows := range m.banks {
		clear(rows)
	}
	banks := m.cfg.Banks
	for b := range m.slabs {
		ms, ss := &m.slabs[b], &src.slabs[b]
		ms.copyFrom(ss)
		copy(m.liveAny[b], src.liveAny[b])
		m.liveCnt[b] = src.liveCnt[b]
		for k := 0; k < ss.structNext; k++ {
			sr := &ss.structChunks[k/ss.chunkRows][k%ss.chunkRows]
			// The pool of bank b serves the LineChips arenas chip*banks+b.
			chip := 0
			for &src.arenas[chip*banks+b] != sr.arena {
				chip++
			}
			r := &ms.structChunks[k/ms.chunkRows][k%ms.chunkRows]
			r.arena = &m.arenas[chip*banks+b]
			if r.slot != noSlot {
				r.words = ms.slotWords(r.slot)
			}
			m.banks[chip*banks+b][r.idx] = r
		}
	}
	for i := range m.arenas {
		copy(m.arenas[i].charged, src.arenas[i].charged)
	}
	m.spared = append([]uint64(nil), src.spared...)
	m.storage.materialized = src.storage.materialized
	m.storage.reservedBytes = src.storage.reservedBytes
	m.storage.usedBytes = src.storage.usedBytes
	return nil
}

// checkGroupRows bounds-checks a diagonal group in chip order, raising the
// scalar panic on the first bad row. The in-range comparison stays inline
// in the caller's loop; only the failure path calls into checkRow.
func (m *Module) checkGroupRows(rows *[LineChips]int) {
	rpb := uint(m.cfg.RowsPerBank)
	for chip := 0; chip < LineChips; chip++ {
		if uint(rows[chip]) >= rpb {
			m.checkRow(rows[chip])
		}
	}
}

// liveAnyGroupEmpty reports whether every row of the diagonal group is
// provably struct-free in every chip: the group fast-path test of
// RefreshGroup and ReplayRefreshGroup. A bank with more than an eighth of
// its rows materialized declines immediately — nearly every group on such
// a bank holds a live row, so the per-row probes would be pure overhead on
// top of the dense loop they fail into. Bounds checks run only when the
// probe itself runs; a declining return leaves them to the caller's dense
// loop, which guards every row access anyway.
func (m *Module) liveAnyGroupEmpty(bank int, rows *[LineChips]int) bool {
	if int(m.liveCnt[bank]) > m.cfg.RowsPerBank>>3 {
		return false
	}
	m.checkGroupRows(rows)
	la := m.liveAny[bank]
	for chip := 0; chip < LineChips; chip++ {
		rowIdx := rows[chip]
		if la[rowIdx>>6]&(1<<(uint(rowIdx)&63)) != 0 {
			return false
		}
	}
	return true
}
