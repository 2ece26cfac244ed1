package memctrl

import (
	"sort"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/rng"
)

// The performance model measures how much refresh blocking inflates memory
// latency. It is a closed-loop simulation of the rank's bank queues: each
// auto-refresh occupies its bank (per-bank policy) or the whole rank
// (all-bank policy) for a busy window, and requests overlapping a busy
// window wait it out. ZERO-REFRESH shortens busy windows in proportion to
// the refresh steps actually performed, which is what Figure 17's IPC gains
// come from.
//
// Real cores self-throttle because each can only sustain a bounded number
// of outstanding LLC misses. SimulateClosedLoop models that: Cores*MLP
// request slots each cycle through think -> queue -> service, so
// throughput adapts to memory latency exactly as an out-of-order core's
// retirement does. With a fixed horizon, completed requests are directly
// proportional to achieved IPC.

// RefreshSchedule yields the bank-busy duration of each AR command. Index k
// is the k-th command issued to the bank since the simulation start.
type RefreshSchedule interface {
	// ARBusy returns how long the k-th AR of the bank occupies it. Zero
	// means the command was fully skipped and costs nothing.
	ARBusy(bank, k int) dram.Time
}

// ConstantSchedule models the conventional controller: every AR costs the
// full tRFC.
type ConstantSchedule struct{ Busy dram.Time }

// ARBusy implements RefreshSchedule.
func (s ConstantSchedule) ARBusy(int, int) dram.Time { return s.Busy }

// SliceSchedule replays recorded per-AR busy times: Busy[bank][k]. Indexes
// beyond the recorded range repeat cyclically, so one recorded retention
// window can cover an arbitrarily long performance run.
type SliceSchedule struct{ Busy [][]dram.Time }

// ARBusy implements RefreshSchedule.
func (s SliceSchedule) ARBusy(bank, k int) dram.Time {
	b := s.Busy[bank]
	if len(b) == 0 {
		return 0
	}
	return b[k%len(b)]
}

// PerfConfig configures the rank's bank queues.
type PerfConfig struct {
	Banks int
	// ARInterval is the time between consecutive AR commands to one
	// bank (tREFI for all-bank, tRET/numARs for per-bank).
	ARInterval dram.Time
	// AllBank blocks every bank during any bank's refresh window.
	AllBank bool
	// HitService and MissService are the request service times.
	HitService  dram.Time
	MissService dram.Time
	// LatencyHist, when non-nil, receives every demand miss's end-to-end
	// latency (complete - arrive, in nanoseconds) as an observation.
	LatencyHist *metrics.Histogram
}

// DefaultPerfConfig derives service times from the DRAM timing parameters.
func DefaultPerfConfig(cfg dram.Config, numARs int) PerfConfig {
	t := cfg.Timing
	return PerfConfig{
		Banks:       cfg.Banks,
		ARInterval:  t.TRET / dram.Time(numARs),
		HitService:  t.TCAS + t.TBurst,
		MissService: t.TRP + t.TRCD + t.TCAS + t.TBurst,
	}
}

// ClosedLoopConfig configures the closed-loop simulation.
type ClosedLoopConfig struct {
	Perf PerfConfig
	// Cores and MLP bound the outstanding misses (Cores*MLP slots).
	Cores int
	MLP   int
	// ThinkNs is the per-slot gap between completing one miss and
	// issuing the next, representing the instructions executed between
	// the misses of one outstanding stream.
	ThinkNs float64
	// RowHitRate and WriteFrac shape the request mix.
	RowHitRate float64
	WriteFrac  float64
	// Seed drives bank/hit draws.
	Seed uint64
}

// ClosedLoopResult reports a closed-loop run.
type ClosedLoopResult struct {
	// Reads is the number of completed demand misses.
	Reads int64
	// Writebacks is the number of piggybacked write requests issued.
	Writebacks int64
	// TotalLatency sums demand-miss latencies (queue+refresh+service).
	TotalLatency dram.Time
	// RefreshWait is the latency portion spent waiting out refresh.
	RefreshWait dram.Time
	// RefreshRowMisses counts accesses forced to row-miss latency
	// because a refresh closed the bank's open row since its last use.
	RefreshRowMisses int64
	Horizon          dram.Time
}

// AvgLatency returns the mean demand-miss latency in ns.
func (r ClosedLoopResult) AvgLatency() float64 {
	if r.Reads == 0 {
		return 0
	}
	return float64(r.TotalLatency) / float64(r.Reads)
}

// Record publishes the run into a metrics registry under "perf." names:
// request counts as counters, latency decompositions as gauges
// (nanoseconds).
func (r ClosedLoopResult) Record(reg *metrics.Registry) {
	reg.Counter("perf.reads").Add(r.Reads)
	reg.Counter("perf.writebacks").Add(r.Writebacks)
	reg.Counter("perf.refresh_row_misses").Add(r.RefreshRowMisses)
	reg.Gauge("perf.avg_latency_ns").Set(r.AvgLatency())
	reg.Gauge("perf.refresh_wait_ns").Set(float64(r.RefreshWait))
	reg.Gauge("perf.horizon_ns").Set(float64(r.Horizon))
}

// refreshWindows precomputes each bank's busy windows up to the horizon,
// honouring the all-bank policy by merging.
func refreshWindows(cfg PerfConfig, sched RefreshSchedule, horizon dram.Time) [][]window {
	busy := make([][]window, cfg.Banks)
	for b := 0; b < cfg.Banks; b++ {
		for k := 0; ; k++ {
			start := dram.Time(k) * cfg.ARInterval
			if start >= horizon {
				break
			}
			if d := sched.ARBusy(b, k); d > 0 {
				busy[b] = append(busy[b], window{start, start + d})
			}
		}
	}
	if cfg.AllBank {
		var all []window
		for _, ws := range busy {
			all = append(all, ws...)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
		merged := make([]window, 0, len(all))
		for _, w := range all {
			if n := len(merged); n > 0 && w.start <= merged[n-1].end {
				if w.end > merged[n-1].end {
					merged[n-1].end = w.end
				}
				continue
			}
			merged = append(merged, w)
		}
		for b := range busy {
			busy[b] = merged
		}
	}
	return busy
}

type window struct{ start, end dram.Time }

// SimulateClosedLoop runs the closed-loop model until the horizon.
func SimulateClosedLoop(cfg ClosedLoopConfig, sched RefreshSchedule, horizon dram.Time) ClosedLoopResult {
	slots := cfg.Cores * cfg.MLP
	if slots <= 0 {
		return ClosedLoopResult{Horizon: horizon}
	}
	busy := refreshWindows(cfg.Perf, sched, horizon)
	nextWin := make([]int, cfg.Perf.Banks)
	bankFree := make([]dram.Time, cfg.Perf.Banks)
	// lastServed and refWin track refresh-induced row-buffer misses: a
	// refresh closes the open row, so the first access to a bank after
	// any refresh window pays the miss latency even if it would have
	// hit (Section III-A: "after refreshing, the next data access is
	// likely to have a row buffer miss").
	lastServed := make([]dram.Time, cfg.Perf.Banks)
	refWin := make([]int, cfg.Perf.Banks)
	nextIssue := make([]dram.Time, slots)
	for i := range nextIssue {
		// Stagger slot starts across one think period.
		nextIssue[i] = dram.Time(float64(i) * cfg.ThinkNs / float64(slots))
	}
	rnd := rng.NewSplitMix(cfg.Seed ^ 0xc105ed100b)
	res := ClosedLoopResult{Horizon: horizon}

	for {
		// Next slot to issue.
		s := 0
		for i := 1; i < slots; i++ {
			if nextIssue[i] < nextIssue[s] {
				s = i
			}
		}
		arrive := nextIssue[s]
		if arrive >= horizon {
			break
		}
		bank := rnd.Intn(cfg.Perf.Banks)
		rowHit := rnd.Float64() < cfg.RowHitRate
		start := arrive
		if bankFree[bank] > start {
			start = bankFree[bank]
		}
		ws := busy[bank]
		i := nextWin[bank]
		for i < len(ws) {
			w := ws[i]
			if w.end <= start {
				i++
				continue
			}
			// Service-time check below uses the miss latency bound,
			// conservative for hits.
			if w.start >= start+cfg.Perf.MissService {
				break
			}
			res.RefreshWait += w.end - start
			start = w.end
			i++
		}
		nextWin[bank] = i
		// Any refresh window that ended since the bank's last service
		// closed its open row: the access pays a row miss. This only
		// bites when the bank was in active use — an idle bank's row
		// would have been closed by the controller's idle-precharge
		// policy regardless, and that case is already priced into the
		// average RowHitRate.
		const openRowWindow = 500 // ns of bank inactivity before idle precharge
		j := refWin[bank]
		for j < len(ws) && ws[j].end <= start {
			j++
		}
		if j > refWin[bank] && ws[refWin[bank]].end > lastServed[bank] &&
			start-lastServed[bank] < openRowWindow {
			rowHit = false
			res.RefreshRowMisses++
		}
		refWin[bank] = j
		svc := cfg.Perf.MissService
		if rowHit {
			svc = cfg.Perf.HitService
		}
		complete := start + svc
		bankFree[bank] = complete
		lastServed[bank] = complete
		res.Reads++
		res.TotalLatency += complete - arrive
		if cfg.Perf.LatencyHist != nil {
			cfg.Perf.LatencyHist.Observe(int64(complete - arrive))
		}
		// Piggyback a writeback with probability wf/(1-wf) (write
		// traffic share of total); it occupies the bank but does not
		// stall the core.
		if wf := cfg.WriteFrac; wf > 0 && wf < 1 && rnd.Float64() < wf/(1-wf) {
			bankFree[bank] += cfg.Perf.HitService
			res.Writebacks++
		}
		// Jitter the think time +/-25%: instruction counts between
		// misses vary, and a deterministic gap can phase-lock with the
		// refresh cadence and overstate (or hide) interference.
		think := cfg.ThinkNs * (0.75 + 0.5*rnd.Float64())
		nextIssue[s] = complete + dram.Time(think)
	}
	return res
}
