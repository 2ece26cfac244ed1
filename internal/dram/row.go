package dram

import "math/bits"

// row is the per-chip storage for one rank-level row index. Rows are stored
// sparsely: a nil words slice means the row is in the fully discharged state
// (the power-on state of a capacitor array, and also the state the OS's
// zero-filled pages transform into). Backing storage for non-discharged rows
// is not individually allocated: words is a row-sized slot carved out of the
// owning bank's arena slab (see arena.go). This keeps multi-GB geometries
// cheap as long as most of memory is idle, and keeps what *is* materialized
// cache-linear.
type row struct {
	// words holds the logical 64-bit values of the row, or nil when the
	// row is fully discharged.
	words []uint64
	// chargedWords counts the words containing at least one charged
	// cell. The row may skip refresh exactly when chargedWords == 0;
	// this mirrors the wired-OR discharge detector of Section IV-B in
	// O(1) instead of re-sensing the whole row.
	chargedWords int
	// lastRecharge is the time of the last activation or refresh. Any
	// activation (read, write or refresh) restores full charge to the
	// row via the sense amplifiers.
	lastRecharge Time
	// everDecayed records that the row lost charged data at least once
	// because its refresh deadline was missed.
	everDecayed bool
	// chip and idx locate the row (its chip, and its index within the
	// bank) for Module.CopyFrom. chip sits in everDecayed's padding, so
	// the struct stays 64 bytes.
	chip uint8
	// slab is the rank-level bank slab the row's struct and slot come
	// from.
	slab *bankSlab
	idx  int32
	// slot is the arena slot backing words, or noSlot when words is nil.
	slot int32
}

// popcountCharged returns the total number of charged cells in the row;
// used by diagnostics and tests. It reads the arena view in place without
// copying.
func popcountCharged(words []uint64, ct CellType) int {
	n := 0
	for _, w := range words {
		n += bits.OnesCount64(ct.ChargedBits(w))
	}
	return n
}

// claim takes an arena slot for the row's words without initializing it:
// slots are recycled, so the caller rewrites every word — stale content
// from a previous tenant must never show through.
func (r *row) claim() {
	r.words, r.slot = r.slab.alloc()
	r.slab.st.noteMaterialized(1)
}

// materialize claims an arena slot initialized to the fully discharged
// pattern for the row's cell type.
func (r *row) materialize(ct CellType) {
	r.claim()
	fillWords(r.words, ct.DischargedWord())
}

// releaseWords drops a materialized row back to the storage-free fully
// discharged representation: its arena slot returns to the free list. The
// caller has already zeroed chargedWords.
func (r *row) releaseWords() {
	r.slab.releaseSlot(r.slot)
	r.slab.st.noteMaterialized(-1)
	r.words = nil
	r.slot = noSlot
}

// readWord returns the logical value of word slot i, treating a nil row as
// fully discharged.
func (r *row) readWord(i int, ct CellType) uint64 {
	if r == nil || r.words == nil {
		return ct.DischargedWord()
	}
	return r.words[i]
}

// writeWord stores v into word slot i, maintaining the charged-word count.
// It returns true if the row is fully discharged afterwards. The body is
// split so this hot-path entry stays within the inlining budget; the
// discharged-row case lives in the slow-path helper, and the
// count-adjustment crossing in adjustCharged.
func (r *row) writeWord(i int, v uint64, ct CellType) bool {
	if r.words == nil {
		return r.writeWordSlow(i, v, ct)
	}
	oldCharged := ct.ChargedBits(r.words[i]) != 0
	newCharged := ct.ChargedBits(v) != 0
	r.words[i] = v
	if oldCharged != newCharged {
		return r.adjustCharged(newCharged)
	}
	return r.chargedWords == 0
}

// writeWordSlow handles the store writeWord's fast path cannot: a row with
// no backing storage. The discharged pattern is a no-op; anything else
// claims an arena slot first.
func (r *row) writeWordSlow(i int, v uint64, ct CellType) bool {
	if ct.ChargedBits(v) == 0 {
		// Writing the discharged pattern into a discharged row leaves it
		// discharged; no storage needed.
		return true
	}
	r.materialize(ct)
	return r.writeWord(i, v, ct)
}

// adjustCharged moves the charged-word count after a word crossed between
// charged and discharged, releasing the backing slot when the row reaches
// the fully discharged state again.
func (r *row) adjustCharged(nowCharged bool) bool {
	if nowCharged {
		r.chargedWords++
		return false
	}
	r.chargedWords--
	if r.chargedWords == 0 {
		// chargedWords == 0 implies every word equals the discharged
		// pattern, so the backing slot can be released again.
		r.releaseWords()
		return true
	}
	return false
}

// decay models retention loss: every charged cell leaks to the discharged
// state, which for a whole row collapses to the discharged pattern. The data
// previously stored in charged cells is destroyed.
func (r *row) decay() {
	r.chargedWords = 0
	r.everDecayed = true
	r.releaseWords()
}

// discharged reports whether the row contains no charged cells (and hence
// may skip refresh without losing data).
func (r *row) discharged() bool {
	return r == nil || r.chargedWords == 0
}
