// Package consumer exercises the layer-ownership rules from outside the
// owning packages.
package consumer

import (
	"layerpurity/dram"
	"layerpurity/metrics"
)

// backend is a declared interface slice of the rank contract; mutating
// through it is the sanctioned path.
type backend interface {
	WriteWord(row int, v uint64)
	Refresh(row int) bool
	RefreshGroups(groups [][8]int, masks []uint16)
	ReplayRefreshGroups(groups [][8]int, windows int64)
	BeginRowWrite(row int) dram.RowWrite
}

func direct(m *dram.Module) bool {
	m.WriteWord(0, 1)   // want "mutates DRAM cell state on concrete"
	return m.Refresh(0) // want "mutates DRAM cell state on concrete"
}

func directBatched(m *dram.Module) {
	m.RefreshGroups(nil, nil)            // want "mutates DRAM cell state on concrete"
	m.ReplayRefreshGroups([][8]int{}, 4) // want "mutates DRAM cell state on concrete"
}

func directBurst(m *dram.Module) {
	w := m.BeginRowWrite(0) // want "mutates DRAM cell state on concrete"
	dram.StoreRange(&w, 0, []uint64{1})
	w.End()
}

// directCopy overwrites a concrete module's cells outside the composition
// root.
func directCopy(dst, src *dram.Module) error {
	return dst.CopyFrom(src) // want "mutates DRAM cell state on concrete"
}

// directRecycle gives a concrete module's storage away outside the
// composition root.
func directRecycle(m *dram.Module) {
	m.Recycle() // want "mutates DRAM cell state on concrete"
}

// throughInterfaceBurst opens the burst through the interface; the cursor
// it returns is then the sanctioned handle on the row.
func throughInterfaceBurst(b backend) {
	w := b.BeginRowWrite(0)
	dram.StoreRange(&w, 0, []uint64{1, 2})
	w.End()
}

func throughInterface(b backend) bool {
	b.WriteWord(0, 1)
	b.RefreshGroups(nil, nil)
	b.ReplayRefreshGroups([][8]int{}, 4)
	return b.Refresh(0)
}

func readBatched(m *dram.Module) [8]uint64 {
	// Line-granular reads recharge rows as a physical side effect but are
	// not part of the mutating contract slice, same as scalar ReadWord.
	return m.ReadLineWords(0)
}

func bootProbe(m *dram.Module) {
	m.MarkSpared(3) //zr:allow(layerpurity) boot-time row-sparing probe needs the concrete module
}

func read(m *dram.Module) int {
	return m.Rows()
}

func mint() *metrics.Counter {
	return &metrics.Counter{} // want "constructed by composite literal"
}

func mintNew() *metrics.Gauge {
	return new(metrics.Gauge) // want "constructed with new"
}

type holder struct {
	good *metrics.Counter
	bad  metrics.Gauge // want "declared by value"
}

func mintHistogram() *metrics.Histogram {
	return &metrics.Histogram{} // want "constructed by composite literal"
}

func mintHistogramNew() *metrics.Histogram {
	return new(metrics.Histogram) // want "constructed with new"
}

type histHolder struct {
	good *metrics.Histogram
	bad  metrics.Histogram // want "declared by value"
}

func sanctioned(r *metrics.Registry) *metrics.Counter {
	return r.Counter("fills")
}

func sanctionedHistogram(r *metrics.Registry) *metrics.Histogram {
	return r.Histogram("latency")
}
