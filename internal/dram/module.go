package dram

import (
	"fmt"

	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

// Stats counts the operations a Module has performed. All counters are
// cumulative since construction. It is a point-in-time snapshot of the
// module's metrics registry (see Module.Metrics).
type Stats struct {
	// Activations counts row activations caused by reads and writes
	// (one per chip-row touched).
	Activations int64
	// Refreshes counts chip-row refresh operations actually performed.
	Refreshes int64
	// WordReads and WordWrites count word-granularity data transfers.
	WordReads  int64
	WordWrites int64
	// DecayEvents counts chip-rows that lost charged data because their
	// retention deadline passed before the next recharge. A correctly
	// operating refresh policy keeps this at zero.
	DecayEvents int64
}

// Module simulates one DRAM rank: LineChips devices, each with Banks banks of
// RowsPerBank rows. Storage is sparse: every chip-row costs its 16-byte
// state, and only a row that holds a charged cell owns word storage.
//
// The module is deliberately policy-free: it performs reads, writes and
// refreshes when told to and destroys data whose retention deadline was
// missed. Deciding *which* rows to refresh is the job of internal/refresh.
type Module struct {
	cfg Config
	// rows holds the state of every chip-row: one contiguous run of
	// RowsPerBank entries per chip-bank, in row order, chip-major (see
	// tableIndex). It is allocated once and pointer-free, and its zero
	// value is a never-touched row. Word storage comes from slabs[bank]
	// (see arena.go).
	rows []row
	// chipStride is the table distance between one chip's row and the
	// next chip's row of the same (bank, row): Banks*RowsPerBank.
	chipStride int
	// slabs[bank] is the word storage shared by all chips of that
	// rank-level bank; see bankSlab.
	slabs []bankSlab
	// pool supplies the row table and arena chunks and takes them back at
	// Recycle; nil allocates them. Clones share it.
	pool *Pool
	// wordsPerRow caches cfg.WordsPerChipRow() so the per-call hot paths
	// skip its division chain.
	wordsPerRow int
	// storage tracks the memory footprint of the arena representation and
	// feeds the dram.storage.* metrics.
	storage storageStats
	// spared is the set of rank-level row indices remapped by row sparing
	// for fault tolerance; refresh skipping must be disabled for them
	// (Section IV-B). A bitset rather than a map keeps the sense path —
	// consulted for every refresh step — a load and a mask instead of a
	// hashed lookup; nil until the first MarkSpared, since most ranks
	// spare nothing.
	spared rowSet

	// Operation counters live in a metrics registry so a sharded system
	// can snapshot every rank's activity concurrently and uniformly.
	reg          *metrics.Registry
	activations  *metrics.Counter
	refreshes    *metrics.Counter
	wordReads    *metrics.Counter
	wordWrites   *metrics.Counter
	decayEvents  *metrics.Counter
	refreshedAge *metrics.Histogram

	// tr receives typed events when tracing is enabled; nil otherwise.
	tr trace.Sink
}

// New constructs a Module. It panics if the configuration is invalid, as a
// bad geometry is a programming error rather than a runtime condition.
func New(cfg Config) *Module { return NewPooled(cfg, nil) }

// NewPooled is New with the module's storage taken from p (see Pool): a
// recycled row table, cleared, or a new one, and arena chunks as its slabs
// grow. The module's clones take theirs from p too, and Recycle gives it
// back. A nil p makes it New.
func NewPooled(cfg Config, p *Pool) *Module { return newModule(cfg, p, true) }

// newModule builds a module with storage from p. A recycled row table is
// cleared when clean is set; a clone, whose table CopyFrom overwrites
// whole, passes false.
func newModule(cfg Config, p *Pool, clean bool) *Module {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rows, recycled := p.table(LineChips * cfg.Banks * cfg.RowsPerBank)
	if recycled && clean {
		clear(rows)
	}
	reg := metrics.NewRegistry()
	m := &Module{
		cfg:          cfg,
		rows:         rows,
		chipStride:   cfg.Banks * cfg.RowsPerBank,
		pool:         p,
		reg:          reg,
		activations:  reg.Counter("dram.activations"),
		refreshes:    reg.Counter("dram.refreshes"),
		wordReads:    reg.Counter("dram.word_reads"),
		wordWrites:   reg.Counter("dram.word_writes"),
		decayEvents:  reg.Counter("dram.decay_events"),
		refreshedAge: reg.Histogram("dram.refresh_interval_ns"),
	}
	m.storage = newStorageStats(reg)
	m.wordsPerRow = cfg.WordsPerChipRow()
	m.slabs = make([]bankSlab, cfg.Banks)
	for b := range m.slabs {
		m.slabs[b].init(&m.storage, p, cfg.WordsPerChipRow(), LineChips*cfg.RowsPerBank)
	}
	return m
}

// Config returns the module geometry.
func (m *Module) Config() Config { return m.cfg }

// SetTracer installs the event sink the module emits charge-transition and
// retention-violation events into. A nil sink (the default) disables
// emission; the module must only be traced from its owning shard goroutine.
func (m *Module) SetTracer(tr trace.Sink) { m.tr = tr }

// Metrics returns the module's metrics registry, for attachment into a
// system-wide registry.
func (m *Module) Metrics() *metrics.Registry { return m.reg }

// Stats returns a snapshot of the operation counters.
func (m *Module) Stats() Stats {
	return Stats{
		Activations: m.activations.Load(),
		Refreshes:   m.refreshes.Load(),
		WordReads:   m.wordReads.Load(),
		WordWrites:  m.wordWrites.Load(),
		DecayEvents: m.decayEvents.Load(),
	}
}

// MarkSpared records that the given rank-level row index is backed by a
// spare row. Spared rows never report themselves as discharged so the
// refresh engine cannot skip them.
func (m *Module) MarkSpared(rowIdx int) {
	m.checkRow(rowIdx)
	if m.spared == nil {
		m.spared = make(rowSet, (m.cfg.RowsPerBank+63)/64)
	}
	m.spared[rowIdx/64] |= 1 << (rowIdx % 64)
}

// rowSet is a bitset over rank-level row indices: row r is bit r%64 of
// word r/64. The nil set is empty.
type rowSet []uint64

// has reports whether row r, already bounds-checked, is in the set.
func (s rowSet) has(r int) bool {
	return s != nil && s[uint(r)/64]&(1<<(uint(r)%64)) != 0
}

// IsSpared reports whether the row index is remapped by row sparing. Out of
// range indices report false, as the map-backed implementation did.
func (m *Module) IsSpared(rowIdx int) bool {
	if rowIdx < 0 || rowIdx >= m.cfg.RowsPerBank {
		return false
	}
	return m.spared.has(rowIdx)
}

func (m *Module) checkAddr(chip, bank, rowIdx int) {
	if chip < 0 || chip >= LineChips {
		panic(fmt.Sprintf("dram: chip %d out of range [0,%d)", chip, LineChips))
	}
	m.checkBank(bank)
	m.checkRow(rowIdx)
}

// checkBank panics for a bank outside the geometry.
func (m *Module) checkBank(bank int) {
	if bank < 0 || bank >= m.cfg.Banks {
		panic(fmt.Sprintf("dram: bank %d out of range [0,%d)", bank, m.cfg.Banks))
	}
}

func (m *Module) checkRow(rowIdx int) {
	if rowIdx < 0 || rowIdx >= m.cfg.RowsPerBank {
		panic(fmt.Sprintf("dram: row %d out of range [0,%d)", rowIdx, m.cfg.RowsPerBank))
	}
}

// tableIndex returns the index of chip-row (chip, bank, rowIdx) in m.rows.
func (m *Module) tableIndex(chip, bank, rowIdx int) int {
	return chip*m.chipStride + bank*m.cfg.RowsPerBank + rowIdx
}

// rowAt returns the state of chip-row (chip, bank, rowIdx).
func (m *Module) rowAt(chip, bank, rowIdx int) *row {
	return &m.rows[m.tableIndex(chip, bank, rowIdx)]
}

// activate brings the chip-row into the sense amplifiers, enforcing the
// retention model: if the row held charged cells and the deadline has
// passed, the charge — and the data it carried — is gone before the access
// observes it. On successful activation the write-back through the sense
// amplifiers fully recharges the row.
func (m *Module) activate(chip, bank, rowIdx int, now Time) *row {
	r := m.rowAt(chip, bank, rowIdx)
	m.expire(r, chip, bank, rowIdx, now)
	r.flags |= rowTouched
	r.lastRecharge = now
	m.activations.Inc()
	return r
}

// expire applies retention loss to a row if its deadline has passed.
func (m *Module) expire(r *row, chip, bank, rowIdx int, now Time) {
	if r.overdue(now, m.cfg.Timing.TRET) {
		m.slabs[bank].decay(r)
		m.decayEvents.Inc()
		if m.tr != nil {
			m.tr.Emit(traceRetentionViolation(now, chip, bank, rowIdx))
		}
	}
}

// traceRetentionViolation builds the event for a chip-row that lost charged
// data to a missed retention deadline.
func traceRetentionViolation(now Time, chip, bank, rowIdx int) trace.Event {
	return trace.Event{
		Kind: trace.KindRetentionViolation, Time: int64(now),
		Chip: int32(chip), Bank: int32(bank), Row: int32(rowIdx),
	}
}

// traceChargeTransition builds the event for a chip-row crossing between
// the charged and fully discharged states on the store path.
func traceChargeTransition(now Time, chip, bank, rowIdx int, discharged bool) trace.Event {
	var a int64
	if discharged {
		a = 1
	}
	return trace.Event{
		Kind: trace.KindChargeTransition, Time: int64(now),
		Chip: int32(chip), Bank: int32(bank), Row: int32(rowIdx), A: a,
	}
}

// WriteWord stores the logical 64-bit value v into word slot wordIdx of the
// given chip-row. The activation recharges the whole row.
func (m *Module) WriteWord(chip, bank, rowIdx, wordIdx int, v uint64, now Time) {
	m.checkAddr(chip, bank, rowIdx)
	if wordIdx < 0 || wordIdx >= m.wordsPerRow {
		panic(fmt.Sprintf("dram: word %d out of range [0,%d)", wordIdx, m.wordsPerRow))
	}
	r := m.activate(chip, bank, rowIdx, now)
	before := r.charged == 0
	after := m.slabs[bank].writeWord(r, wordIdx, v, m.cfg.CellTypeOf(rowIdx))
	m.wordWrites.Inc()
	if m.tr != nil && before != after {
		m.tr.Emit(traceChargeTransition(now, chip, bank, rowIdx, after))
	}
}

// ReadWord returns the logical 64-bit value of word slot wordIdx of the
// given chip-row. Rows whose retention deadline passed return the decayed
// (fully discharged) pattern — exactly what the hardware would read.
func (m *Module) ReadWord(chip, bank, rowIdx, wordIdx int, now Time) uint64 {
	m.checkAddr(chip, bank, rowIdx)
	if wordIdx < 0 || wordIdx >= m.wordsPerRow {
		panic(fmt.Sprintf("dram: word %d out of range [0,%d)", wordIdx, m.wordsPerRow))
	}
	r := m.activate(chip, bank, rowIdx, now)
	m.wordReads.Inc()
	return m.slabs[bank].readWord(r, wordIdx, m.cfg.CellTypeOf(rowIdx))
}

// Refresh recharges one chip-row and reports whether the row was fully
// discharged. The discharged status comes for free: the refresh already
// senses every cell of the row, and a wired-OR of the charge lines yields
// the row status with negligible area (Section IV-B).
func (m *Module) Refresh(chip, bank, rowIdx int, now Time) (discharged bool) {
	m.checkAddr(chip, bank, rowIdx)
	r := m.rowAt(chip, bank, rowIdx)
	m.refreshes.Inc()
	if r.flags&rowTouched == 0 {
		// Never-touched row: fully discharged; the refresh is still
		// performed by the hardware when commanded.
		return true
	}
	m.expire(r, chip, bank, rowIdx, now)
	m.refreshedAge.Observe(int64(now - r.lastRecharge))
	r.lastRecharge = now
	return r.charged == 0
}

// SenseDischarged reports whether a chip-row currently contains no charged
// cells, without recharging it. This models the detector output available
// while the row sits in the sense amplifiers; standalone use is only for
// instrumentation and tests. Spared rows always report false so that the
// refresh engine cannot skip them.
func (m *Module) SenseDischarged(chip, bank, rowIdx int) bool {
	m.checkAddr(chip, bank, rowIdx)
	if m.spared.has(rowIdx) {
		return false
	}
	return m.rowAt(chip, bank, rowIdx).charged == 0
}

// RowDischargedAllChips reports whether the rank-level row (same index in
// every chip) is discharged in all chips — the condition for skipping one
// refresh step under the rank-synchronous skip design.
func (m *Module) RowDischargedAllChips(bank, rowIdx int) bool {
	for chip := 0; chip < LineChips; chip++ {
		if !m.SenseDischarged(chip, bank, rowIdx) {
			return false
		}
	}
	return true
}

// ChargedCellCount returns the number of charged cells in one chip-row;
// used by diagnostics and tests.
func (m *Module) ChargedCellCount(chip, bank, rowIdx int) int {
	m.checkAddr(chip, bank, rowIdx)
	return popcountCharged(m.slabs[bank].words(m.rowAt(chip, bank, rowIdx)), m.cfg.CellTypeOf(rowIdx))
}

// EverDecayed reports whether the chip-row lost data to retention failure at
// any point. Integrity tests assert this stays false for every row under a
// correct refresh policy.
func (m *Module) EverDecayed(chip, bank, rowIdx int) bool {
	m.checkAddr(chip, bank, rowIdx)
	return m.rowAt(chip, bank, rowIdx).flags&rowDecayed != 0
}

// CheckIntegrity scans every chip-row and returns the number of rows that
// (a) have already lost data, or (b) hold charged cells whose deadline has
// passed as of now and would lose data on their next activation.
func (m *Module) CheckIntegrity(now Time) (violations int) {
	tret := m.cfg.Timing.TRET
	for i := range m.rows {
		r := &m.rows[i]
		if r.flags&rowDecayed != 0 || r.overdue(now, tret) {
			violations++
		}
	}
	return violations
}

// MaterializedRows returns the number of chip-rows currently holding backing
// storage; useful for validating the sparse representation.
func (m *Module) MaterializedRows() int {
	n := 0
	for i := range m.rows {
		if m.rows[i].slot != 0 {
			n++
		}
	}
	return n
}
