package transform

// Raw is the identity line codec: no EBDI, no bit-plane transposition, no
// cell-type awareness. It is what a conventional system's datapath does,
// and the zero-cost end of the ablation axis — it satisfies the same
// engine.LineCodec contract as Pipeline, so the controller can run either
// without special-casing.
type Raw struct{}

// Encode returns the line unchanged.
func (Raw) Encode(l Line, rowIdx int) Line { return l }

// EncodeFill returns the line unchanged; the passthrough has no per-line
// accounting to replicate.
func (Raw) EncodeFill(l Line, rowIdx, n int) Line { return l }

// EncodeRow leaves the row's lines unchanged.
func (Raw) EncodeRow(lines []Line, rowIdx int) {}

// Decode returns the line unchanged.
func (Raw) Decode(l Line, rowIdx int) Line { return l }

// Ops reports zero: the passthrough exercises no transform hardware, so
// the energy model charges nothing for it.
func (Raw) Ops() int64 { return 0 }
