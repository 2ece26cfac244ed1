package dram

import "math/bits"

// row is the state of one chip-row: 16 bytes and no pointer, so a module
// keeps every chip-row of its geometry in one flat table (Module.rows) that
// the garbage collector never scans and CopyFrom copies with one copy. The
// zero value is a never-touched row: fully discharged, owning no words, with
// no recharge time. Words live in the owning bank's arena slab (see
// arena.go), found from the slot; a row without a slot reads as the fully
// discharged pattern — the power-on state of a capacitor array, and also the
// state the OS's zero-filled pages transform into. This keeps multi-GB
// geometries cheap as long as most of memory is idle, and keeps what *is*
// materialized cache-linear.
type row struct {
	// lastRecharge is the time of the last activation or refresh. Any
	// activation (read, write or refresh) restores full charge to the
	// row via the sense amplifiers.
	lastRecharge Time
	// slot is the arena slot holding the row's words plus one, or 0 when
	// the row holds no words (fully discharged).
	slot int32
	// charged counts the words containing at least one charged cell. The
	// row may skip refresh exactly when charged == 0; this mirrors the
	// wired-OR discharge detector of Section IV-B in O(1) instead of
	// re-sensing the whole row. Config.Validate bounds a chip-row's word
	// count to fit it.
	charged uint16
	// flags holds rowTouched and rowDecayed.
	flags uint8
}

const (
	// rowTouched marks a row some access has activated. A refresh of an
	// untouched row senses it discharged and records no refresh age.
	rowTouched uint8 = 1 << iota
	// rowDecayed records that the row lost charged data at least once
	// because its refresh deadline was missed.
	rowDecayed
)

// maxChargedWords is the largest chip-row word count row.charged holds.
const maxChargedWords = 1<<16 - 1

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

// words returns r's arena words, or nil when r holds none.
func (s *bankSlab) words(r *row) []uint64 {
	if r.slot == 0 {
		return nil
	}
	return s.slotWords(r.slot - 1)
}

// claim takes an arena slot for r's words without initializing it and
// returns them: slots are recycled, so the caller rewrites every word —
// stale content from a previous tenant must never show through.
func (s *bankSlab) claim(r *row) []uint64 {
	ws, slot := s.alloc()
	r.slot = slot + 1
	s.st.noteMaterialized(1)
	return ws
}

// materialize claims an arena slot for r initialized to the fully
// discharged pattern for the row's cell type.
func (s *bankSlab) materialize(r *row, ct CellType) []uint64 {
	ws := s.claim(r)
	fillWords(ws, ct.DischargedWord())
	return ws
}

// release drops r back to the storage-free fully discharged
// representation: its arena slot returns to the free list. The caller has
// already zeroed r.charged.
func (s *bankSlab) release(r *row) {
	s.releaseSlot(r.slot - 1)
	s.st.noteMaterialized(-1)
	r.slot = 0
}

// readWord returns the logical value of word slot i of r, treating a row
// without words as fully discharged.
func (s *bankSlab) readWord(r *row, i int, ct CellType) uint64 {
	if r.slot == 0 {
		return ct.DischargedWord()
	}
	return s.slotWords(r.slot - 1)[i]
}

// writeWord stores v into word slot i of r, maintaining the charged-word
// count, and reports whether the row is fully discharged afterwards. A row
// without words stays without them when v is the discharged pattern, and
// claims a discharged-filled slot otherwise; a row whose count returns to
// zero gives its slot back.
func (s *bankSlab) writeWord(r *row, i int, v uint64, ct CellType) bool {
	newCharged := ct.ChargedBits(v) != 0
	var ws []uint64
	if r.slot == 0 {
		if !newCharged {
			// Writing the discharged pattern into a discharged row leaves it
			// discharged; no storage needed.
			return true
		}
		ws = s.materialize(r, ct)
	} else {
		ws = s.slotWords(r.slot - 1)
	}
	oldCharged := ct.ChargedBits(ws[i]) != 0
	ws[i] = v
	switch {
	case newCharged && !oldCharged:
		r.charged++
	case oldCharged && !newCharged:
		r.charged--
		if r.charged == 0 {
			// charged == 0 implies every word equals the discharged
			// pattern, so the backing slot can be released again.
			s.release(r)
		}
	}
	return r.charged == 0
}

// decay models retention loss: every charged cell leaks to the discharged
// state, which for a whole row collapses to the discharged pattern. The
// data previously stored in charged cells is destroyed. r holds charged
// words, so it owns a slot.
func (s *bankSlab) decay(r *row) {
	r.charged = 0
	r.flags |= rowDecayed
	s.release(r)
}

// overdue reports whether r holds charged words whose retention deadline
// has passed as of now.
func (r *row) overdue(now, tret Time) bool {
	return r.charged > 0 && now-r.lastRecharge > tret
}
