// Package core is the fixture composition root: it constructs concrete
// modules while wiring a system, so direct mutation is sanctioned here.
package core

import "layerpurity/dram"

// Build constructs a module and spares a row, concretely and legally.
func Build() *dram.Module {
	m := dram.New(8)
	m.MarkSpared(1)
	return m
}

// Clone copies a module concretely, as the composition root may.
func Clone(src *dram.Module) (*dram.Module, error) {
	m := dram.New(8)
	return m, m.CopyFrom(src)
}
