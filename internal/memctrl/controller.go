package memctrl

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
	"zerorefresh/internal/transform"
)

// Controller is the functional datapath between the LLC and DRAM. Every
// evicted cacheline is value-transformed (Section V) and scattered over the
// chips by the configured mapping before it is written; reads reverse the
// path. Writes are reported to the refresh policy's access-bit table.
//
// The controller is wired entirely through the narrow engine interfaces:
// any row-granular backend, any line codec (the ZERO-REFRESH pipeline with
// any subset of its stages, or the benchmarks' identity codec) and any
// write-notified refresh policy compose without the controller knowing
// their concrete types.
type Controller struct {
	mod     engine.MemoryBackend
	eng     engine.WriteNotifier
	pipe    engine.LineCodec
	mapping transform.ChipMapping
	amap    AddressMap

	reg          *metrics.Registry
	linesRead    *metrics.Counter
	linesWritten *metrics.Counter

	// row stages one rank-level row of lines for WriteRow, which fills,
	// encodes and scatters it in place and stores it from there; WriteLine
	// stages its one line in row[0].
	row []transform.Line

	// tr receives writeback events when tracing is enabled; nil otherwise.
	tr engine.Tracer
}

// NewController wires the datapath together. eng may be nil for a
// conventional system with no refresh policy to notify.
func NewController(mod engine.MemoryBackend, eng engine.WriteNotifier, pipe engine.LineCodec, mapping transform.ChipMapping) *Controller {
	reg := metrics.NewRegistry()
	return &Controller{
		mod:          mod,
		eng:          eng,
		pipe:         pipe,
		mapping:      mapping,
		amap:         NewAddressMap(mod.Config()),
		reg:          reg,
		linesRead:    reg.Counter("ctrl.lines_read"),
		linesWritten: reg.Counter("ctrl.lines_written"),
		row:          make([]transform.Line, mod.Config().LinesPerRow()),
	}
}

// SetTracer installs the event sink the controller emits writeback events
// into. A nil sink (the default) disables emission; the controller must
// only be traced from its owning shard goroutine.
func (c *Controller) SetTracer(tr engine.Tracer) { c.tr = tr }

// AddressMap exposes the controller's address translation.
func (c *Controller) AddressMap() AddressMap { return c.amap }

// Module returns the attached memory backend.
func (c *Controller) Module() engine.MemoryBackend { return c.mod }

// Metrics returns the controller's metrics registry, for attachment into
// a system-wide registry.
func (c *Controller) Metrics() *metrics.Registry { return c.reg }

// LinesRead returns the number of cachelines read since construction.
func (c *Controller) LinesRead() int64 { return c.linesRead.Load() }

// LinesWritten returns the number of cachelines written since construction.
func (c *Controller) LinesWritten() int64 { return c.linesWritten.Load() }

// WriteLine stores a 64-byte cacheline at the line-aligned physical
// address, transforming and rotating it on the way: the line is scattered
// as a one-line row. The scattered words reach the rank through one
// batched backend call; the differential tests pin it against a scalar
// twin that issues one WriteWord per chip.
//
//zr:hotpath
func (c *Controller) WriteLine(addr uint64, data [64]byte, now dram.Time) error {
	loc, err := c.amap.Locate(addr)
	if err != nil {
		return err
	}
	line := c.row[:1]
	line[0] = c.pipe.Encode(transform.LineFromBytes(&data), loc.Row)
	c.mapping.Scatter(line, loc.Row)
	c.mod.WriteLineWords(loc.Bank, loc.Row, loc.Slot, line[0], now)
	c.noteLineWritten(loc, now)
	return nil
}

// noteLineWritten performs the per-line bookkeeping of a write: the
// refresh-policy notification, the written-lines counter and the writeback
// trace event.
func (c *Controller) noteLineWritten(loc Location, now dram.Time) {
	c.noteRowWritten(loc, 1)
	if c.tr != nil {
		c.tr.Emit(writeback(loc.Bank, loc.Row, loc.Slot, now))
	}
}

// noteRowWritten is the bookkeeping of n lines written to loc's row: one
// refresh-policy notification (the access bit is per row) and one counter
// Add.
func (c *Controller) noteRowWritten(loc Location, n int) {
	if c.eng != nil {
		c.eng.NoteWrite(loc.Bank, loc.Row)
	}
	c.linesWritten.Add(int64(n))
}

// writeback builds the trace event of one line stored to slot of (bank,
// row).
func writeback(bank, row, slot int, now dram.Time) trace.Event {
	return trace.Event{
		Kind: trace.KindWriteback, Time: int64(now),
		Chip: -1, Bank: int32(bank), Row: int32(row),
		A: int64(slot),
	}
}

// WriteRow stores a whole rank-level row — the row containing addr — as
// one row burst that copies no line. fill writes every word of the row's
// lines, in line order, straight into the controller's staging row; the
// lines are then encoded in place in one EncodeRow call, scattered in place
// in one Scatter call, and each slot's chip words are stored through a
// pointer into the staging row. Each chip-row is activated once, and the
// bookkeeping is one address translation, one refresh-policy notification
// and one counter Add per row. Cell state, counters and the per-shard trace
// order are exactly those of one WriteLine per slot in slot order: each
// slot's DRAM events are followed by its writeback event. The differential
// tests pin it against the scalar line loop.
//
//zr:hotpath
func (c *Controller) WriteRow(addr uint64, fill func(lines []transform.Line), now dram.Time) error {
	loc, err := c.amap.Locate(c.amap.RowBase(addr))
	if err != nil {
		return err
	}
	lines := c.row
	fill(lines)
	c.pipe.EncodeRow(lines, loc.Row)
	c.mapping.Scatter(lines, loc.Row)
	w := c.mod.BeginRowWrite(loc.Bank, loc.Row, now)
	for slot := range lines {
		w.Write(slot, (*[dram.LineChips]uint64)(&lines[slot]))
		if c.tr != nil {
			c.tr.Emit(writeback(loc.Bank, loc.Row, slot, now))
		}
	}
	w.End()
	c.noteRowWritten(loc, len(lines))
	return nil
}

// ReadLine fetches and inverse-transforms the cacheline at addr. Like
// WriteLine it issues one batched backend call per line.
//
//zr:hotpath
func (c *Controller) ReadLine(addr uint64, now dram.Time) ([64]byte, error) {
	loc, err := c.amap.Locate(addr)
	if err != nil {
		return [64]byte{}, err
	}
	words := c.mod.ReadLineWords(loc.Bank, loc.Row, loc.Slot, now)
	line := c.pipe.Decode(c.mapping.Gather(words, loc.Row), loc.Row)
	c.linesRead.Inc()
	return line.Bytes(), nil
}
