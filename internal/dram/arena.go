package dram

import "zerorefresh/internal/metrics"

// Per-bank row arenas, copy-on-write sentinel rows and word-level charge
// bitmaps — the storage layer behind the sparse row representation.
//
// Three mechanisms, each observationally invisible (the scalar/dense twins
// in batch_test.go and internal/memctrl pin bit-identical cell state,
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
//  2. Copy-on-write sentinels. A whole-row fill with one uniform charged
//     word — the page-cleansing WriteZeroRow under transform combos whose
//     encoded zero is not the discharged pattern, and the OS allocator's
//     zero-on-free path above it — aliases one shared per-value sentinel
//     row instead of writing WordsPerChipRow words. The first dirty write
//     (or a spared-row remap) copies the sentinel into a private arena
//     slot. Sentinel rows are read-only by construction: every mutation
//     path materializes first.
//
//  3. Charge bitmaps. Per chip-bank, bit r of `charged` mirrors
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
	// maxSentinels bounds the shared sentinel cache. A run that fills rows
	// with more distinct uniform words than this falls back to eager
	// materialization for the excess values, keeping the cache O(1)-sized.
	maxSentinels = 64
	// noSlot marks a row whose words are nil or alias a shared sentinel —
	// either way no arena slot is owned.
	noSlot = -1
)

// storageStats feeds the dram.storage.* metrics: the memory-footprint view
// of the arena/CoW representation. The twin-differential tests compare
// modules driven through different (but observationally equivalent) call
// sequences, which legitimately reach different storage layouts, so these
// samples are excluded from snapshot bit-identity comparisons.
type storageStats struct {
	materialized  int64 // chip-rows with words != nil (arena-backed or CoW)
	reservedBytes int64 // bytes of arena chunks allocated
	usedBytes     int64 // bytes of arena slots currently owned by rows

	gMaterialized *metrics.Gauge
	gReserved     *metrics.Gauge
	gUsed         *metrics.Gauge
	cowHits       *metrics.Counter
}

func newStorageStats(reg *metrics.Registry) storageStats {
	return storageStats{
		gMaterialized: reg.Gauge("dram.storage.materialized_rows"),
		gReserved:     reg.Gauge("dram.storage.arena_reserved_bytes"),
		gUsed:         reg.Gauge("dram.storage.arena_used_bytes"),
		cowHits:       reg.Counter("dram.storage.cow_hits"),
	}
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
	off := int(slot) % s.chunkRows * s.wordsPerRow
	ws := s.chunks[int(slot)/s.chunkRows][off : off+s.wordsPerRow : off+s.wordsPerRow]
	s.st.noteUsed(int64(s.wordsPerRow) * WordBytes)
	return ws, slot
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

// sentinel returns the shared read-only row holding the uniform word v,
// creating it on first use. It returns nil when the cache is at capacity
// and v is not in it — the caller then materializes eagerly, trading the
// CoW win for bounded memory. The create-time make is the same sanctioned
// lazy materialization pattern the arenas use.
func (m *Module) sentinel(v uint64) []uint64 {
	s := m.sentinels[v]
	if s == nil {
		if len(m.sentinels) >= maxSentinels {
			return nil
		}
		s = make([]uint64, m.wordsPerRow)
		for i := range s {
			s[i] = v
		}
		m.sentinels[v] = s
	}
	return s
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
