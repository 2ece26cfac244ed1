package dram

import (
	"errors"
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
// slices stable), named by a flat slot index that the row's 16-byte state
// stores. A line op materializes its LineChips sibling chip-rows
// back-to-back into consecutive slots, so the rows it revisits are adjacent.
// The arenas are observationally invisible: the scalar twins in
// batch_test.go and internal/memctrl pin bit-identical cell state,
// counters, histograms and trace streams.
//
// Nothing indexes which rows exist or hold charge. A refresh reads every
// chip-row's state from the module's dense table (Module.rows) in the same
// loop, touched or not.

// arenaChunkRows is the number of row slots carved per arena chunk
// (clamped to the bank's row count for tiny geometries). 256 rows of the
// default 64-word chip-row are 128 KB per chunk.
const arenaChunkRows = 256

// storageStats feeds the dram.storage.* metrics: the memory-footprint view
// of the arena representation.
type storageStats struct {
	materialized  int64 // chip-rows that own a slot
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

// bankSlab is the word storage of one rank-level bank, shared by that
// bank's chip-banks in all LineChips chips. Sharing keeps a cacheline's
// sibling chip-rows adjacent in memory: a line write materializes all
// LineChips of them back-to-back, so they come out of consecutive slots of
// one chunk instead of LineChips distinct page-aligned slabs — one page walk
// per line op instead of one per chip.
type bankSlab struct {
	st          *storageStats
	pool        *Pool // where chunks come from; nil allocates each one
	wordsPerRow int
	chunkRows   int

	// chunks is the word slab: each chunk holds chunkRows slots of
	// wordsPerRow words. Slots are identified by a flat index; handed-out
	// row slices are full-capacity subslices of a chunk, so growth (which
	// only appends chunks) never moves them.
	chunks []([]uint64)
	next   int32   // first never-allocated slot
	free   []int32 // released slots, reused LIFO
}

func (s *bankSlab) init(st *storageStats, pool *Pool, wordsPerRow, maxSlots int) {
	s.st = st
	s.pool = pool
	s.wordsPerRow = wordsPerRow
	s.chunkRows = arenaChunkRows
	if maxSlots < s.chunkRows {
		s.chunkRows = maxSlots
	}
}

// alloc hands out one row-sized word slice from the slab, growing it by a
// chunk from the pool when both the free list and the bump region are
// exhausted. The chunk is not cleared: claim rewrites every word of a slot
// it hands out. The returned slice is capacity-capped so appends can never
// spill into the neighbouring slot.
func (s *bankSlab) alloc() ([]uint64, int32) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if int(s.next) == len(s.chunks)*s.chunkRows {
			s.chunks = append(s.chunks, s.pool.chunk(s.chunkRows*s.wordsPerRow))
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

// copyFrom makes s's chunks, bump cursor and free list a slot-for-slot
// copy of src's, with new chunks from the pool, and gives s's old chunks
// back to it. Only the slots below the cursor are copied: a slot at or
// past it is rewritten by claim before it is read, like every word of a
// pooled chunk.
func (s *bankSlab) copyFrom(src *bankSlab) {
	chunks := make([][]uint64, len(src.chunks))
	used := int(src.next) * s.wordsPerRow
	for i, c := range src.chunks {
		n := min(len(c), used)
		chunks[i] = s.pool.chunk(len(c))
		copy(chunks[i], c[:n])
		used -= n
	}
	s.pool.putChunks(s.chunks)
	s.chunks = chunks
	s.next = src.next
	s.free = append([]int32(nil), src.free...)
}

// recycle gives every chunk back to the pool and empties the slab.
func (s *bankSlab) recycle() {
	s.pool.putChunks(s.chunks)
	s.chunks, s.next, s.free = nil, 0, nil
}

// releaseSlot returns one slot to the free list. Slots are not cleared on
// release; whoever claims a slot rewrites every word, so stale content can
// never leak into a fresh row.
func (s *bankSlab) releaseSlot(slot int32) {
	s.free = append(s.free, slot)
	s.st.noteUsed(-int64(s.wordsPerRow) * WordBytes)
}

// CopyFrom makes m's cell state and storage layout equal to src's,
// replacing whatever m held. m must be a module of src's Config, and
// neither may be recycled; CopyFrom returns an error otherwise. The row
// table is copied whole, and every bank's word chunks, bump cursor and
// free list slot for slot, so m reports the same dram.storage.* footprint
// and reuses slots in the same order src would. m's chunks come from m's
// pool, and the ones it held go back to it. The spared rows are copied
// too, so m shares no storage with src.
//
// The operation counters live in m's registry (Metrics) and are not
// touched: the composition root copies them with metrics.Registry.CopyFrom.
// Neither is the tracer, which stays m's own.
func (m *Module) CopyFrom(src *Module) error {
	if m.cfg != src.cfg {
		return fmt.Errorf("dram: copy of a %+v module into a %+v module", src.cfg, m.cfg)
	}
	if m.recycled() || src.recycled() {
		return errRecycled
	}
	copy(m.rows, src.rows)
	for b := range m.slabs {
		m.slabs[b].copyFrom(&src.slabs[b])
	}
	m.spared = append(rowSet(nil), src.spared...)
	m.storage.materialized = src.storage.materialized
	m.storage.reservedBytes = src.storage.reservedBytes
	m.storage.usedBytes = src.storage.usedBytes
	return nil
}

// errRecycled rejects a copy or clone involving a recycled module.
var errRecycled = errors.New("dram: module storage was recycled")

// Clone returns a new module of m's Config and pool whose cell state and
// storage layout equal m's, as CopyFrom makes them. Its row table is
// overwritten whole by the copy, so a recycled one is not cleared first.
// Its counters start at zero and it has no tracer, as with New. Cloning a
// recycled module is an error.
func (m *Module) Clone() (*Module, error) {
	if m.recycled() {
		return nil, errRecycled
	}
	c := newModule(m.cfg, m.pool, false)
	if err := c.CopyFrom(m); err != nil {
		return nil, err
	}
	return c, nil
}

// Recycle gives m's row table and arena chunks back to its pool (a nil
// pool lets the garbage collector take them) and ends the life of m's
// cells: m must not be stored to, refreshed or read again, and CopyFrom
// and Clone reject it. Its registry, gauges included, keeps the values it
// had. Recycling a recycled module does nothing.
func (m *Module) Recycle() {
	if m.recycled() {
		return
	}
	m.pool.putTable(m.rows)
	m.rows = nil
	for b := range m.slabs {
		m.slabs[b].recycle()
	}
}

// recycled reports whether Recycle has taken m's storage.
func (m *Module) recycled() bool { return m.rows == nil }
