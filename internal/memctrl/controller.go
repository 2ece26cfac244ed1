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
// any row-granular backend, any line codec (the full ZERO-REFRESH pipeline
// or the transform.Raw passthrough) and any write-notified refresh policy
// compose without the controller knowing their concrete types.
type Controller struct {
	mod     engine.MemoryBackend
	eng     engine.WriteNotifier
	pipe    engine.LineCodec
	mapping transform.ChipMapping
	amap    AddressMap

	reg          *metrics.Registry
	linesRead    *metrics.Counter
	linesWritten *metrics.Counter

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
// address, transforming and rotating it on the way. The scattered words
// reach the rank through one batched backend call; the differential tests
// pin it against a scalar twin that issues one WriteWord per chip.
//
//zr:hotpath
func (c *Controller) WriteLine(addr uint64, data [64]byte, now dram.Time) error {
	loc, err := c.amap.Locate(addr)
	if err != nil {
		return err
	}
	enc := c.pipe.Encode(transform.LineFromBytes(&data), loc.Row)
	c.mod.WriteLineWords(loc.Bank, loc.Row, loc.Slot, c.mapping.Scatter(enc, loc.Row), now)
	c.noteLineWritten(loc, now)
	return nil
}

// noteLineWritten performs the per-line bookkeeping of a write: the
// refresh-policy notification, the written-lines counter and the writeback
// trace event.
func (c *Controller) noteLineWritten(loc Location, now dram.Time) {
	if c.eng != nil {
		c.eng.NoteWrite(loc.Bank, loc.Row)
	}
	c.linesWritten.Inc()
	if c.tr != nil {
		c.tr.Emit(trace.Event{
			Kind: trace.KindWriteback, Time: int64(now),
			Chip: -1, Bank: int32(loc.Bank), Row: int32(loc.Row),
			A: int64(loc.Slot),
		})
	}
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

// WriteZeroRow stores zero cachelines into every slot of the rank-level row
// containing addr, as the OS page-cleansing path would. The zero line is
// encoded once for the row's cell type (every slot of a row stores the same
// encoded pattern) and the whole row is filled in one backend call; the
// accounting — transform ops, write counters, trace events — is charged per
// line exactly as the slot-by-slot datapath would charge it.
//
//zr:hotpath
func (c *Controller) WriteZeroRow(addr uint64, now dram.Time) error {
	loc, err := c.amap.Locate(c.amap.RowBase(addr))
	if err != nil {
		return err
	}
	lines := c.mod.Config().LinesPerRow()
	enc := c.pipe.EncodeFill(transform.Line{}, loc.Row, lines)
	c.mod.FillRowWords(loc.Bank, loc.Row, c.mapping.Scatter(enc, loc.Row), now)
	if c.eng != nil {
		c.eng.NoteWrite(loc.Bank, loc.Row)
	}
	c.linesWritten.Add(int64(lines))
	if c.tr != nil {
		for slot := 0; slot < lines; slot++ {
			c.tr.Emit(trace.Event{
				Kind: trace.KindWriteback, Time: int64(now),
				Chip: -1, Bank: int32(loc.Bank), Row: int32(loc.Row),
				A: int64(slot),
			})
		}
	}
	return nil
}
