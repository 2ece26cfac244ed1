package ostrace

import "fmt"

// Allocator models the OS physical-page allocator with
// cleanse-at-deallocation (Section III-B): freed pages are immediately
// zero-filled, so idle pages sit in memory as zeros — which the
// charge-aware refresh hardware detects and stops refreshing with no
// OS/DRAM interface at all.
//
// Placement is first-fit (lowest free page) and release is LIFO (highest
// allocated page), idealizing a buddy allocator: free memory stays
// contiguous in large spans, as Linux's buddy system maintains. This
// matters for ZERO-REFRESH because refresh skipping operates on
// stagger-block units (LineChips rows); page-granular fragmentation of free
// memory would leave most blocks mixed and unskippable, which is not how
// real kernels leave free memory.
type Allocator struct {
	totalPages int
	// nAllocated is the allocated page count. First-fit placement and
	// LIFO release keep the allocated set equal to the prefix
	// [0, nAllocated).
	nAllocated int

	// OnAllocate is called when a page is handed to the application
	// (the caller fills it with application content).
	OnAllocate func(page int)
	// OnFree is called when a page is deallocated (the caller writes
	// zeros through the memory datapath, as the kernel's cleansing
	// would).
	OnFree func(page int)

	allocations   int64
	deallocations int64
}

// NewAllocator builds an allocator over totalPages physical pages, all
// initially free (and zero, as at boot). Placement is fully deterministic
// (first-fit allocate, LIFO release), so the allocator takes no seed.
func NewAllocator(totalPages int) *Allocator {
	if totalPages <= 0 {
		panic("ostrace: totalPages must be positive")
	}
	return &Allocator{totalPages: totalPages}
}

// AllocatedPages returns how many pages are currently allocated.
func (a *Allocator) AllocatedPages() int { return a.nAllocated }

// AllocatedFraction returns the current utilization.
func (a *Allocator) AllocatedFraction() float64 {
	return float64(a.nAllocated) / float64(a.totalPages)
}

// Stats returns cumulative allocation and deallocation counts.
func (a *Allocator) Stats() (allocs, frees int64) { return a.allocations, a.deallocations }

// SetTargetFraction allocates the lowest free pages or frees the highest
// allocated ones until the utilization reaches the target (rounded to whole
// pages), invoking the fill/cleanse callbacks along the way.
func (a *Allocator) SetTargetFraction(target float64) error {
	if target < 0 || target > 1 {
		return fmt.Errorf("ostrace: target fraction %v out of [0,1]", target)
	}
	want := int(target*float64(a.totalPages) + 0.5)
	for a.nAllocated < want {
		a.allocateOne()
	}
	for a.nAllocated > want {
		a.freeOne()
	}
	return nil
}

func (a *Allocator) allocateOne() {
	p := a.nAllocated // the lowest free page
	a.nAllocated++
	a.allocations++
	if a.OnAllocate != nil {
		a.OnAllocate(p)
	}
}

func (a *Allocator) freeOne() {
	p := a.nAllocated - 1
	a.nAllocated--
	a.deallocations++
	if a.OnFree != nil {
		a.OnFree(p)
	}
}

// AllocatedPageIndices returns the currently allocated pages in ascending
// order (for iterating application content).
func (a *Allocator) AllocatedPageIndices() []int {
	out := make([]int, a.nAllocated)
	for p := range out {
		out[p] = p
	}
	return out
}
