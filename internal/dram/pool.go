package dram

import "sync"

// Pool recycles the storage of discarded modules — arena chunks and row
// tables, each kept by length — for the modules built or cloned after
// them. An experiment fan-out builds, clones and drops many modules of a
// few geometries; with a pool, each takes the storage its predecessors
// gave back (Module.Recycle) instead of allocating and zeroing its own.
//
// Storage comes out of a pool with whatever its last owner left in it. A
// chunk needs no clearing: claim's contract rewrites every slot word
// before it is read. A recycled row table is cleared for a new module and
// overwritten whole by CopyFrom for a clone.
//
// A Pool is safe for concurrent use. Its mutex is taken only when a module
// is built, cloned or recycled, and when a slab grows by a chunk (once per
// arenaChunkRows slots), never per store. A nil *Pool allocates every
// time and keeps nothing.
type Pool struct {
	mu     sync.Mutex
	chunks freeLists[uint64]
	tables freeLists[row]
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{chunks: freeLists[uint64]{}, tables: freeLists[row]{}}
}

// freeLists holds recycled slices by length. The pool's mutex guards it.
type freeLists[T any] map[int][][]T

// pop removes and returns a recycled slice of length n, or nil.
func (f freeLists[T]) pop(n int) []T {
	l := f[n]
	k := len(l)
	if k == 0 {
		return nil
	}
	s := l[k-1]
	l[k-1] = nil
	f[n] = l[:k-1]
	return s
}

// chunk returns an arena chunk of n words: a recycled one holding stale
// words, or a new one.
func (p *Pool) chunk(n int) []uint64 {
	if p != nil {
		p.mu.Lock()
		c := p.chunks.pop(n)
		p.mu.Unlock()
		if c != nil {
			return c
		}
	}
	return make([]uint64, n)
}

// table returns a row table of n entries: a recycled one holding its last
// module's rows, or a new zero one (recycled false).
func (p *Pool) table(n int) (rows []row, recycled bool) {
	if p != nil {
		p.mu.Lock()
		rows = p.tables.pop(n)
		p.mu.Unlock()
		if rows != nil {
			return rows, true
		}
	}
	return make([]row, n), false
}

// putTable takes back a recycled module's row table.
func (p *Pool) putTable(rows []row) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.tables[len(rows)] = append(p.tables[len(rows)], rows)
	p.mu.Unlock()
}

// putChunks takes back arena chunks a slab no longer holds.
func (p *Pool) putChunks(chunks [][]uint64) {
	if p == nil || len(chunks) == 0 {
		return
	}
	p.mu.Lock()
	for _, c := range chunks {
		p.chunks[len(c)] = append(p.chunks[len(c)], c)
	}
	p.mu.Unlock()
}
