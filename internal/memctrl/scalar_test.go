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
	line := c.row[:1]
	line[0] = c.pipe.Encode(transform.LineFromBytes(&data), loc.Row)
	c.mapping.Scatter(line, loc.Row)
	for chip, w := range line[0] {
		mod.WriteWord(chip, loc.Bank, loc.Row, loc.Slot, w, now)
	}
	c.noteLineWritten(loc, now)
	return nil
}

// writeRowScalar is WriteRow as a slot-by-slot loop of writeLineScalar:
// fill stages the row in a fresh slice, and each line is stored from its
// 64-byte image.
func (c *Controller) writeRowScalar(addr uint64, fill func(lines []transform.Line), now dram.Time) error {
	lines := make([]transform.Line, c.mod.Config().LinesPerRow())
	fill(lines)
	base := c.amap.RowBase(addr)
	for ln, l := range lines {
		if err := c.writeLineScalar(base+uint64(ln)*dram.LineBytes, l.Bytes(), now); err != nil {
			return err
		}
	}
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
