// Package refresh implements the DRAM-side charge-aware refresh reduction
// of ZERO-REFRESH (Section IV of the paper): auto-refresh scheduling with
// per-bank (or all-bank) granularity, staggered per-chip refresh counters,
// discharged-row detection during refresh, a DRAM-resident discharged-status
// table, and the coarse-grained SRAM access-bit table that avoids updating
// the DRAM-resident table on every write.
package refresh

import (
	"fmt"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

// Config selects the refresh engine behaviour. The zero value is a
// conventional refresh controller (no skipping); DefaultConfig enables the
// full ZERO-REFRESH mechanism.
type Config struct {
	// Skip enables charge-aware refresh skipping for discharged rows.
	Skip bool
	// RowsPerAR is the number of refresh steps (rank-level rows) covered
	// by one auto-refresh command. The paper's 32 GB / 8-bank geometry
	// refreshes 128 rows (512 KB) per per-bank AR; this is also the
	// granularity of one access bit.
	RowsPerAR int
	// Stagger initializes the per-chip refresh counters to their chip
	// number so that the rows refreshed together across chips form the
	// diagonal groups matching the data-rotation stage (Section IV-C,
	// Figure 8). Without staggering every chip refreshes the same row
	// index at each step.
	Stagger bool
	// AllBank switches from the per-bank auto-refresh policy (the
	// paper's base design, as in REFLEX) to the all-bank policy, where
	// one command refreshes the step range in every bank and blocks the
	// whole rank.
	AllBank bool
	// StatusInDRAM stores the discharged-status table in a reserved DRAM
	// region (the paper's optimized design): its rows are always
	// refreshed and every AR costs one table read or write. When false,
	// the naive 1 MB-SRAM design is modelled instead (no DRAM overhead,
	// but large SRAM leakage — accounted by the energy model).
	StatusInDRAM bool
	// PerChipStatus is a design-space alternative to the paper's
	// rank-synchronous skipping: each chip's refresh logic skips its
	// own row independently, tracked with one status bit per chip-row
	// (LineChips x the storage of the paper's 1-bit-per-rank-row table).
	// It captures skips the step-granular design misses — e.g. a
	// zero word class pinned to one chip under the unrotated mapping —
	// at LineChips times the table cost. Compare via NormalizedChipRefresh.
	PerChipStatus bool
}

// DefaultConfig returns the paper's base engine configuration.
func DefaultConfig() Config {
	return Config{Skip: true, RowsPerAR: 128, Stagger: true, StatusInDRAM: true}
}

// Resolve completes the configuration for banks of rowsPerBank rows: an
// unset RowsPerAR selects the paper's 128, and one larger than the bank is
// clamped to it. It reports an error when the bank does not divide into
// whole auto-refresh commands.
func (c Config) Resolve(rowsPerBank int) (Config, error) {
	if rowsPerBank <= 0 {
		return c, fmt.Errorf("refresh: RowsPerBank (%d) must be positive", rowsPerBank)
	}
	if c.RowsPerAR <= 0 {
		c.RowsPerAR = 128
	}
	if c.RowsPerAR > rowsPerBank {
		c.RowsPerAR = rowsPerBank
	}
	if rowsPerBank%c.RowsPerAR != 0 {
		return c, fmt.Errorf("refresh: RowsPerBank (%d) not divisible by RowsPerAR (%d)", rowsPerBank, c.RowsPerAR)
	}
	return c, nil
}

// ARResult reports what one auto-refresh command did in one bank.
type ARResult struct {
	// Refreshed and Skipped count refresh steps. A step refreshes one
	// rank-level row: the same diagonal group across all chips.
	// (A per-chip-status step counts as Refreshed if any chip worked.)
	Refreshed int
	Skipped   int
	// ChipRefreshed/ChipSkipped count chip-row refreshes, the common
	// currency across the rank-synchronous and per-chip designs.
	ChipRefreshed int
	ChipSkipped   int
	// StatusRead/StatusWrite report accesses to the DRAM-resident
	// discharged-status table.
	StatusRead  bool
	StatusWrite bool
	// FullySkipped is true when every step of the command was skipped,
	// eliminating the command's tRFC entirely.
	FullySkipped bool
}

// Engine drives refresh for one DRAM rank, addressed through the narrow
// engine.MemoryBackend contract so any row-granular backend (a concrete
// dram.Module, an instrumented wrapper, a future remote shard) can sit
// behind it.
type Engine struct {
	mod engine.MemoryBackend
	cfg Config

	banks       int
	rowsPerBank int
	numARs      int // AR commands per bank per retention window

	// accessBits is the SRAM access-bit table: one bit per (bank, AR
	// set), set by any write to a row of the set since its last refresh
	// (Section IV-B). Packed 64 sets per word so the idle probe tests a
	// whole bank in a handful of loads; bit set>>6 & 63 of word set/64.
	// It starts all-set so the first cycle performs a full learning
	// refresh.
	accessBits [][]uint64
	// status is the discharged-status table: per (bank, step), a mask
	// with bit c set when chip c's row of the step's diagonal group was
	// discharged (and not spared) at its last full refresh. The paper's
	// rank-synchronous design skips a step only when the mask is full;
	// the PerChipStatus variant skips each set bit independently.
	// Stored in DRAM in the optimized design; kept here as the
	// functional model either way.
	status [][]uint16
	// arCursor is the next AR set index per bank.
	arCursor []int
	// lastSetRefreshed records, per (bank, set), how many steps the most
	// recent AR of that set refreshed — the per-command busy profile the
	// performance model replays.
	lastSetRefreshed [][]int
	// skipRun counts, per (bank, step), the consecutive retention windows
	// the step has been skipped; a refresh terminates the run and feeds
	// its length into the discharged-run-length histogram.
	skipRun [][]int32
	// groups holds the diagonal groups of the steps one AR command
	// refreshes, passed to the backend in one RefreshGroups or
	// ReplayRefreshGroups call; RowsPerAR long.
	groups [][dram.LineChips]int

	// Activity counters live in a metrics registry so a sharded system
	// can snapshot every rank's engine concurrently and uniformly.
	reg               *metrics.Registry
	arCommands        *metrics.Counter
	stepsConsidered   *metrics.Counter
	stepsRefreshed    *metrics.Counter
	stepsSkipped      *metrics.Counter
	statusReads       *metrics.Counter
	statusWrites      *metrics.Counter
	fullySkippedARs   *metrics.Counter
	tableRowRefreshes *metrics.Counter
	dischargedRunLen  *metrics.Histogram

	// tr receives typed refresh events when tracing is enabled; nil
	// otherwise.
	tr engine.Tracer
}

// fullMask is the status mask of a diagonal group whose every chip-row
// was discharged and not spared: the rank-synchronous skip condition.
const fullMask = 1<<dram.LineChips - 1

// Stats accumulates engine activity across cycles. It is a point-in-time
// snapshot of the engine's metrics registry (see Engine.Metrics).
type Stats struct {
	ARCommands      int64
	StepsConsidered int64
	StepsRefreshed  int64
	StepsSkipped    int64
	StatusReads     int64
	StatusWrites    int64
	FullySkippedARs int64
	// TableRowRefreshes counts refreshes of the DRAM rows holding the
	// discharged-status table itself (overhead of the optimized design).
	TableRowRefreshes int64
}

// NewEngine builds an engine for the backend. It panics when cfg.Resolve
// rejects the geometry: callers building from user input (core.NewSystem)
// resolve first and report the error.
func NewEngine(m engine.MemoryBackend, cfg Config) *Engine {
	dcfg := m.Config()
	cfg, err := cfg.Resolve(dcfg.RowsPerBank)
	if err != nil {
		panic(err)
	}
	reg := metrics.NewRegistry()
	e := &Engine{
		mod:         m,
		cfg:         cfg,
		banks:       dcfg.Banks,
		rowsPerBank: dcfg.RowsPerBank,
		numARs:      dcfg.RowsPerBank / cfg.RowsPerAR,
		arCursor:    make([]int, dcfg.Banks),
		groups:      make([][dram.LineChips]int, cfg.RowsPerAR),

		reg:               reg,
		arCommands:        reg.Counter("refresh.ar_commands"),
		stepsConsidered:   reg.Counter("refresh.steps_considered"),
		stepsRefreshed:    reg.Counter("refresh.steps_refreshed"),
		stepsSkipped:      reg.Counter("refresh.steps_skipped"),
		statusReads:       reg.Counter("refresh.status_reads"),
		statusWrites:      reg.Counter("refresh.status_writes"),
		fullySkippedARs:   reg.Counter("refresh.fully_skipped_ars"),
		tableRowRefreshes: reg.Counter("refresh.table_row_refreshes"),
		dischargedRunLen:  reg.Histogram("refresh.discharged_run_len"),
	}
	e.accessBits = make([][]uint64, e.banks)
	e.status = make([][]uint16, e.banks)
	e.lastSetRefreshed = make([][]int, e.banks)
	e.skipRun = make([][]int32, e.banks)
	for b := 0; b < e.banks; b++ {
		e.skipRun[b] = make([]int32, e.rowsPerBank)
		e.accessBits[b] = make([]uint64, (e.numARs+63)/64)
		for i := 0; i < e.numARs; i++ {
			e.setAccessBit(b, i) // force a learning refresh first
		}
		e.status[b] = make([]uint16, e.rowsPerBank)
		e.lastSetRefreshed[b] = make([]int, e.numARs)
		for i := range e.lastSetRefreshed[b] {
			e.lastSetRefreshed[b][i] = cfg.RowsPerAR
		}
	}
	return e
}

// CopyFrom makes e's refresh state equal to src's: the access bits, the
// discharged-status table, the AR cursors, the per-set refreshed counts
// and the skip runs. The engines must share a resolved Config and a
// geometry; CopyFrom returns an error otherwise. The counters live in e's
// registry (Metrics) and are copied with metrics.Registry.CopyFrom; the
// backend and the tracer stay e's own.
func (e *Engine) CopyFrom(src *Engine) error {
	if e.cfg != src.cfg || e.banks != src.banks || e.rowsPerBank != src.rowsPerBank {
		return fmt.Errorf("refresh: copy of a %d×%d-row %+v engine into a %d×%d-row %+v engine",
			src.banks, src.rowsPerBank, src.cfg, e.banks, e.rowsPerBank, e.cfg)
	}
	for b := 0; b < e.banks; b++ {
		copy(e.accessBits[b], src.accessBits[b])
		copy(e.status[b], src.status[b])
		copy(e.lastSetRefreshed[b], src.lastSetRefreshed[b])
		copy(e.skipRun[b], src.skipRun[b])
	}
	copy(e.arCursor, src.arCursor)
	return nil
}

// SetRefreshedCounts returns, per (bank, AR set), how many refresh steps
// the most recent command of that set actually performed. The performance
// model converts these into per-command bank-busy times.
func (e *Engine) SetRefreshedCounts() [][]int {
	out := make([][]int, len(e.lastSetRefreshed))
	for b, row := range e.lastSetRefreshed {
		out[b] = append([]int(nil), row...)
	}
	return out
}

// SetTracer installs the event sink the engine emits per-step refresh
// events into. A nil sink (the default) disables emission; the engine must
// only be traced from its owning shard goroutine.
func (e *Engine) SetTracer(tr engine.Tracer) { e.tr = tr }

// Config returns the engine configuration (with defaults resolved).
func (e *Engine) Config() Config { return e.cfg }

// NumARs returns the number of AR commands per bank per retention window.
func (e *Engine) NumARs() int { return e.numARs }

// Metrics returns the engine's metrics registry, for attachment into a
// system-wide registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	return Stats{
		ARCommands:        e.arCommands.Load(),
		StepsConsidered:   e.stepsConsidered.Load(),
		StepsRefreshed:    e.stepsRefreshed.Load(),
		StepsSkipped:      e.stepsSkipped.Load(),
		StatusReads:       e.statusReads.Load(),
		StatusWrites:      e.statusWrites.Load(),
		FullySkippedARs:   e.fullySkippedARs.Load(),
		TableRowRefreshes: e.tableRowRefreshes.Load(),
	}
}

// StepRow returns the rank-level row index chip refreshes at refresh step
// n. With staggered counters (Figure 8) the rows form wrapped diagonals:
// within each block of LineChips rows, chip c starts offset by its chip
// number, so step n refreshes row block*LineChips + (c+n) mod LineChips in
// chip c.
func (e *Engine) StepRow(chip, n int) int {
	if !e.cfg.Stagger {
		return n
	}
	return n/dram.LineChips*dram.LineChips + (chip+n)%dram.LineChips
}

// stepRows returns the diagonal group of step n: rows[c] is StepRow(c, n).
func (e *Engine) stepRows(n int) (rows [dram.LineChips]int) {
	for chip := range rows {
		rows[chip] = e.StepRow(chip, n)
	}
	return rows
}

// stepsOfRow returns the inclusive range of steps [lo,hi] whose diagonal
// groups include the rank-level row in any chip. With staggering, row r is
// visited by every chip during the steps of its block.
func (e *Engine) stepsOfRow(row int) (lo, hi int) {
	if !e.cfg.Stagger {
		return row, row
	}
	lo = row / dram.LineChips * dram.LineChips
	return lo, lo + dram.LineChips - 1
}

// accessBit, setAccessBit and clearAccessBit are the packed probes of the
// access-bit table: AR set `set` of a bank lives at bit set&63 of word
// set>>6.
func (e *Engine) accessBit(bank, set int) bool {
	return e.accessBits[bank][set>>6]&(1<<(uint(set)&63)) != 0
}

func (e *Engine) setAccessBit(bank, set int) {
	e.accessBits[bank][set>>6] |= 1 << (uint(set) & 63)
}

func (e *Engine) clearAccessBit(bank, set int) {
	e.accessBits[bank][set>>6] &^= 1 << (uint(set) & 63)
}

// NoteWrite records that a write touched the rank-level row of a bank.
// The corresponding access bit(s) are set so the next AR covering the row
// performs a full refresh and renews the discharged-status table; the
// DRAM-resident table itself is *not* written on the store path.
func (e *Engine) NoteWrite(bank, row int) {
	lo, hi := e.stepsOfRow(row)
	e.setAccessBit(bank, lo/e.cfg.RowsPerAR)
	e.setAccessBit(bank, hi/e.cfg.RowsPerAR)
}

// noteSkip records one skipped step: its consecutive-skip run grows and the
// event stream (when enabled) sees the step with its current run length.
func (e *Engine) noteSkip(bank, n int, now dram.Time) {
	e.skipRun[bank][n]++
	if e.tr != nil {
		e.tr.Emit(trace.Event{
			Kind: trace.KindRefreshSkipped, Time: int64(now),
			Chip: -1, Bank: int32(bank), Row: int32(n),
			A: int64(e.skipRun[bank][n]),
		})
	}
}

// noteRefresh records one refreshed step, terminating any consecutive-skip
// run the step had accumulated; the run length feeds the
// discharged-run-length histogram.
func (e *Engine) noteRefresh(bank, n, chipRows int, now dram.Time) {
	run := e.skipRun[bank][n]
	if run > 0 {
		e.dischargedRunLen.Observe(int64(run))
		e.skipRun[bank][n] = 0
	}
	if e.tr != nil {
		e.tr.Emit(trace.Event{
			Kind: trace.KindRefreshIssued, Time: int64(now),
			Chip: -1, Bank: int32(bank), Row: int32(n),
			A: int64(chipRows), B: int64(run),
		})
	}
}

// AutoRefreshSet executes one auto-refresh command for the given AR set of
// one bank (Section IV-B):
//
//   - access bit set: refresh every step normally, collecting the renewed
//     discharged bits in the charge-state register, then write them to the
//     status table once and clear the access bit;
//   - access bit clear: read the status bits once and skip the steps whose
//     rows were discharged at their last full refresh (no write occurred
//     since, so the status is still exact).
//
// The steps the command refreshes are queued in e.groups and go to the
// backend in one RefreshGroups call. A traced engine refreshes each step
// at once instead, so the step's refresh-issued event, which noteRefresh
// emits next, follows the module events of its own refresh; untraced,
// noteRefresh moves only engine state, so the refresh may wait for the
// command's call.
//
//zr:hotpath
func (e *Engine) AutoRefreshSet(bank, set int, now dram.Time) ARResult {
	if set < 0 || set >= e.numARs {
		panic(fmt.Sprintf("refresh: AR set %d out of range [0,%d)", set, e.numARs))
	}
	var res ARResult
	first := set * e.cfg.RowsPerAR
	last := first + e.cfg.RowsPerAR
	queued := 0
	if e.accessBit(bank, set) {
		for n := first; n < last; n++ {
			e.groups[queued] = e.stepRows(n)
			queued++
			if e.tr != nil {
				e.mod.RefreshGroups(bank, e.groups[:1], now, e.status[bank][n:n+1])
				queued = 0
			}
			e.noteRefresh(bank, n, dram.LineChips, now)
		}
		if queued > 0 {
			e.mod.RefreshGroups(bank, e.groups[:queued], now, e.status[bank][first:last])
		}
		res.Refreshed = e.cfg.RowsPerAR
		res.ChipRefreshed = e.cfg.RowsPerAR * dram.LineChips
		e.clearAccessBit(bank, set)
		if e.cfg.StatusInDRAM {
			res.StatusWrite = true
			e.statusWrites.Inc()
		}
	} else {
		if e.cfg.StatusInDRAM {
			res.StatusRead = true
			e.statusReads.Inc()
		}
		for n := first; n < last; n++ {
			mask := e.status[bank][n]
			switch {
			case e.cfg.Skip && e.cfg.PerChipStatus:
				// Each chip's internal refresh logic consults its
				// own status bit.
				refreshed := 0
				for chip := 0; chip < dram.LineChips; chip++ {
					if mask&(1<<chip) != 0 {
						res.ChipSkipped++
						continue
					}
					e.mod.Refresh(chip, bank, e.StepRow(chip, n), now)
					refreshed++
				}
				res.ChipRefreshed += refreshed
				if refreshed == 0 {
					res.Skipped++
					e.noteSkip(bank, n, now)
				} else {
					res.Refreshed++
					e.noteRefresh(bank, n, refreshed, now)
				}
			case e.cfg.Skip && mask == fullMask:
				// Rank-synchronous skip: the whole diagonal group.
				res.Skipped++
				res.ChipSkipped += dram.LineChips
				e.noteSkip(bank, n, now)
			default:
				// Refresh normally; the status cannot have improved
				// without a write, so no table update is needed.
				e.groups[queued] = e.stepRows(n)
				queued++
				if e.tr != nil {
					e.mod.RefreshGroups(bank, e.groups[:1], now, nil)
					queued = 0
				}
				e.noteRefresh(bank, n, dram.LineChips, now)
				res.Refreshed++
				res.ChipRefreshed += dram.LineChips
			}
		}
		if queued > 0 {
			e.mod.RefreshGroups(bank, e.groups[:queued], now, nil)
		}
	}
	res.FullySkipped = res.Refreshed == 0
	e.lastSetRefreshed[bank][set] = res.Refreshed
	e.arCommands.Inc()
	e.stepsConsidered.Add(int64(e.cfg.RowsPerAR))
	e.stepsRefreshed.Add(int64(res.Refreshed))
	e.stepsSkipped.Add(int64(res.Skipped))
	if res.FullySkipped {
		e.fullySkippedARs.Inc()
	}
	return res
}

// AutoRefresh executes the next pending AR command for a bank, advancing
// the bank's AR cursor (the refresh counter of Section II-C, at command
// granularity).
func (e *Engine) AutoRefresh(bank int, now dram.Time) ARResult {
	set := e.arCursor[bank]
	e.arCursor[bank] = (set + 1) % e.numARs
	return e.AutoRefreshSet(bank, set, now)
}

// StatusTableRows returns how many rank-level DRAM rows the
// discharged-status table occupies in the optimized design: one bit per
// (bank, step) — or per (bank, step, chip) under PerChipStatus — rounded
// up to whole rows. These rows are pinned charged and refreshed every
// cycle.
func (e *Engine) StatusTableRows() int {
	if !e.cfg.StatusInDRAM {
		return 0
	}
	bits := e.banks * e.rowsPerBank
	if e.cfg.PerChipStatus {
		bits *= dram.LineChips
	}
	bytes := (bits + 7) / 8
	rowBytes := e.mod.Config().RowBytes
	return (bytes + rowBytes - 1) / rowBytes
}

// AccessBitSRAMBytes returns the size of the SRAM access-bit table: one bit
// per (bank, AR set), as in Section IV-B (8 KB for the 32 GB geometry).
func (e *Engine) AccessBitSRAMBytes() int {
	bits := e.banks * e.numARs
	return (bits + 7) / 8
}

// NaiveStatusSRAMBytes returns the SRAM size the naive design would need:
// one bit per rank-level row (1 MB for the 32 GB geometry, Section IV-B).
func (e *Engine) NaiveStatusSRAMBytes() int {
	bits := e.banks * e.rowsPerBank
	return (bits + 7) / 8
}
