package dram

import (
	"fmt"

	"zerorefresh/internal/metrics"
)

// Per-bank row arenas — the storage behind the sparse row representation.
//
// An individually allocated []uint64 per materialized chip-row would cost,
// at multi-GB geometries, one allocator round-trip and one pointer-chased
// cache line per row. Each rank-level bank instead owns a bankSlab shared
// by its LineChips chip-banks: row words live in large contiguous chunks
// carved into fixed row-sized slots (chunked growth keeps already-handed-out
// slices stable), and row structs come from a chunked pool. A line op
// materializes its LineChips sibling chip-rows back-to-back into
// consecutive slots, so the rows it revisits are adjacent and refresh walks
// cache-linear memory. The arenas are observationally invisible: the scalar
// twins in batch_test.go and internal/memctrl pin bit-identical cell state,
// counters, histograms and trace streams.
//
// Nothing indexes which rows exist or hold charge. A refresh finds an
// untouched row by its nil pointer in the same loop that refreshes every
// other row.

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
// shared by that bank's chip-banks in all LineChips chips. Sharing keeps a
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

// newRow hands out a row struct from the chunked pool, stamped with its
// chip and row index, owning no slot. The pool-grow make is the sanctioned
// lazy materialization pattern (sized once, reused), so the hot paths stay
// allocation-free in the steady state.
func (s *bankSlab) newRow(chip, rowIdx int, now Time) *row {
	if s.structNext == len(s.structChunks)*s.chunkRows {
		s.structChunks = append(s.structChunks, make([]row, s.chunkRows))
	}
	r := &s.structChunks[s.structNext/s.chunkRows][s.structNext%s.chunkRows]
	s.structNext++
	r.lastRecharge = now
	r.slab = s
	r.chip = uint8(chip)
	r.idx = int32(rowIdx)
	r.slot = noSlot
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
// src's slab; Module.CopyFrom re-points them.
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
// release; whoever claims a slot rewrites every word, so stale content can
// never leak into a fresh row.
func (s *bankSlab) releaseSlot(slot int32) {
	s.free = append(s.free, slot)
	s.st.noteUsed(-int64(s.wordsPerRow) * WordBytes)
}

// CopyFrom makes m's cell state and storage layout equal to src's,
// replacing whatever m held. m must be a module of src's Config; CopyFrom
// returns an error otherwise. Every bank's word chunks, bump cursor and
// free list are copied slot for slot, so m reports the same
// dram.storage.* footprint and reuses slots in the same order src would.
// The row structs are copied in pool order and re-pointed at m's slabs and
// slots, and the spared rows are copied, so m shares no storage with src.
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
	for b := range m.slabs {
		ms := &m.slabs[b]
		ms.copyFrom(&src.slabs[b])
		for k := 0; k < ms.structNext; k++ {
			r := &ms.structChunks[k/ms.chunkRows][k%ms.chunkRows]
			r.slab = ms
			if r.slot != noSlot {
				r.words = ms.slotWords(r.slot)
			}
			m.bankOf(int(r.chip), b)[r.idx] = r
		}
	}
	m.spared = append([]uint64(nil), src.spared...)
	m.storage.materialized = src.storage.materialized
	m.storage.reservedBytes = src.storage.reservedBytes
	m.storage.usedBytes = src.storage.usedBytes
	return nil
}
