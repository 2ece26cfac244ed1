// Package hotpath exercises the allocation-freedom contract: every banned
// construct direct in a root, an allocation two calls below a root, an
// implementation reached through an interface seam, and a function-value
// reference.
package hotpath

import (
	"fmt"

	"hotpath/engine"
)

type point struct {
	x, y int
}

type boxer interface {
	box() int
}

func (p point) box() int { return p.x }

func cleanup() {}

//zr:hotpath
func Root(m *point) {
	helperA(m)
}

func helperA(m *point) {
	helperB(m)
}

func helperB(m *point) {
	_ = &point{x: 1} // want "address-taken composite literal escapes to the heap on the hot path .hotpath.Root → hotpath.helperA → hotpath.helperB."
	m.x++
}

// Store is a generic hot root, as the row store is: its body is checked
// like any other root's.
//
//zr:hotpath
func Store[L ~[8]uint64](lines []L) int {
	f := func() int { // want "function literal allocates a closure on the hot path"
		return len(lines)
	}
	return f()
}

//zr:hotpath
func Direct(events []int, s boxer) int {
	defer cleanup()    // want "defer allocates and delays cleanup on the hot path"
	f := func() int {  // want "function literal allocates a closure on the hot path"
		return 0
	}
	m := map[int]int{} // want "map literal allocates on the hot path"
	for k := range m { // want "map iteration on the hot path"
		f = nil
		_ = k
	}
	var freshly []int
	freshly = append(freshly, 1) // want "append to fresh capacity-less slice freshly reallocates on the hot path"
	sized := make([]int, 0, 8)
	sized = append(sized, 2) // ok: 3-arg make pre-sizes the backing array
	scratch := make([]int, 4)
	scratch[0] = 3 // ok: make of a slice is the sanctioned materialization pattern
	lit := []int{1, 2} // want "slice literal allocates on the hot path"
	mm := make(map[int]int) // want "make.map. allocates on the hot path"
	ch := make(chan int)    // want "make.chan. allocates on the hot path"
	np := new(point)        // want "new allocates on the hot path"
	name := "a"
	name += "b"       // want "string concatenation allocates on the hot path"
	both := name + "c" // want "string concatenation allocates on the hot path"
	consume(point{x: 4}) // want "passing hotpath.point as hotpath.boxer boxes into an interface on the hot path"
	consume(np)          // ok: pointers are interface-shaped, no allocation
	pt := point{x: 5}    // ok: value composite literal stays on the stack
	_ = boxer(pt)        // want "conversion of hotpath.point to hotpath.boxer boxes into an interface on the hot path"
	_ = s.box()          // ok: already an interface
	if f != nil {
		return f()
	}
	return len(lit) + len(sized) + len(freshly) + len(both) + len(mm) + len(events) + cap(ch)
}

func consume(b boxer) int { return b.box() }

// Impl is the Backend implementation Push resolves to through the seam.
type Impl struct{}

func (Impl) Step(n int) int {
	bad := []int{n} // want "slice literal allocates on the hot path .engine.Queue.Push → hotpath.Impl.Step."
	return bad[0]
}

//zr:hotpath
func Apply() {
	run(helperC)
}

func run(f func()) { f() }

func helperC() {
	m := make(map[int]int) // want "make.map. allocates on the hot path .hotpath.Apply → hotpath.helperC."
	_ = m
}

//zr:hotpath
func Lazy(rows []*point) *point {
	if rows[0] == nil {
		rows[0] = &point{x: 1} //zr:allow(hotpath) one-time lazy materialization, amortized across the run
	}
	return rows[0]
}

//zr:hotpath
func Fail(code int) {
	if code < 0 {
		panic(fmt.Sprintf("bad code %d", code)) // ok: panic paths are cold, their message construction is exempt
	}
}

// Cold allocates freely: it is reachable from no //zr:hotpath root.
func Cold() []string {
	return []string{fmt.Sprintf("%d", 1)}
}

var _ = engine.Queue{}
