package memctrl

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/transform"
)

// Scalar twins of the batched datapath, the reference the differential
// tests and the scalar benchmark subs drive: one word per chip through the
// module's word-granular API.

// writeLineScalar is WriteLine with one WriteWord per chip.
func (c *Controller) writeLineScalar(addr uint64, data [64]byte, now dram.Time) error {
	loc, err := c.amap.Locate(addr)
	if err != nil {
		return err
	}
	mod := c.mod.(*dram.Module)
	enc := c.pipe.Encode(transform.LineFromBytes(&data), loc.Row)
	for chip, w := range c.mapping.Scatter(enc, loc.Row) {
		mod.WriteWord(chip, loc.Bank, loc.Row, loc.Slot, w, now)
	}
	c.noteLineWritten(loc, now)
	return nil
}

// readLineScalar is ReadLine with one ReadWord per chip.
func (c *Controller) readLineScalar(addr uint64, now dram.Time) ([64]byte, error) {
	loc, err := c.amap.Locate(addr)
	if err != nil {
		return [64]byte{}, err
	}
	mod := c.mod.(*dram.Module)
	var words [dram.LineChips]uint64
	for chip := range words {
		words[chip] = mod.ReadWord(chip, loc.Bank, loc.Row, loc.Slot, now)
	}
	line := c.pipe.Decode(c.mapping.Gather(words, loc.Row), loc.Row)
	c.linesRead.Inc()
	return line.Bytes(), nil
}

// writeZeroRowScalar is WriteZeroRow as a slot-by-slot loop of
// writeLineScalar.
func (c *Controller) writeZeroRowScalar(addr uint64, now dram.Time) error {
	base := c.amap.RowBase(addr)
	var zero [64]byte
	for off := uint64(0); off < uint64(c.mod.Config().RowBytes); off += dram.LineBytes {
		if err := c.writeLineScalar(base+off, zero, now); err != nil {
			return err
		}
	}
	return nil
}
