package memctrl

import (
	"math"
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
// honouring the all-bank policy by merging. Every bank's slice is cut
// from one array sized for a window per AR command.
func refreshWindows(cfg PerfConfig, sched RefreshSchedule, horizon dram.Time) [][]window {
	busy := make([][]window, cfg.Banks)
	cmds := 0
	if horizon > 0 {
		cmds = int((horizon + cfg.ARInterval - 1) / cfg.ARInterval)
	}
	backing := make([]window, cfg.Banks*cmds)
	total := 0
	for b := 0; b < cfg.Banks; b++ {
		ws := backing[b*cmds : b*cmds : (b+1)*cmds]
		for k := 0; k < cmds; k++ {
			start := dram.Time(k) * cfg.ARInterval
			if d := sched.ARBusy(b, k); d > 0 {
				ws = append(ws, window{start, start + d})
			}
		}
		busy[b] = ws
		total += len(ws)
	}
	if cfg.AllBank {
		all := make([]window, 0, total)
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

// slotTree is a winner tree over the request slots' next issue times. Node
// size+j is slot j's leaf; every inner node n holds the winner of its
// children 2n and 2n+1 — the earlier time, the lower slot on a tie — so
// node 1 names the slot a scan over every slot for the first strict
// minimum would pick. Leaves past the slot count pad the tree to a power
// of two with the latest representable time: as the highest slots they
// lose even a tie, so they never win.
type slotTree struct {
	size int
	node []slotEntry
}

// slotEntry is a slot and its next issue time.
type slotEntry struct {
	at   dram.Time
	slot int
}

// newSlotTree builds the tree over slots slots, slot j first issuing at
// start(j), in buf if it has room.
func newSlotTree(buf []slotEntry, slots int, start func(j int) dram.Time) slotTree {
	size := 1
	for size < slots {
		size <<= 1
	}
	t := slotTree{size: size, node: sized(buf, 2*size)}
	for j := 0; j < size; j++ {
		t.node[size+j] = slotEntry{math.MaxInt64, j}
		if j < slots {
			t.node[size+j].at = start(j)
		}
	}
	for n := size - 1; n >= 1; n-- {
		l, r := t.node[2*n], t.node[2*n+1]
		if r.at < l.at {
			l = r
		}
		t.node[n] = l
	}
	return t
}

// next returns the winning slot and its issue time.
func (t *slotTree) next() (int, dram.Time) {
	return t.node[1].slot, t.node[1].at
}

// set moves slot s to time v and replays the matches on its leaf's path to
// the root. Every sibling subtree on that path is unchanged, so each match
// is the path's winner so far against the sibling's stored winner.
func (t *slotTree) set(s int, v dram.Time) {
	w := slotEntry{v, s}
	n := t.size + s
	t.node[n] = w
	for ; n > 1; n >>= 1 {
		o := t.node[n^1]
		// The sibling wins if it is earlier, or tied and the left child
		// (n odd), whose slots are the lower ones. The match is a coin
		// flip, so it is written without && and || to compile to
		// conditional moves rather than a branch that mispredicts.
		if b2u(o.at < w.at)|b2u(o.at == w.at)&uint(n&1) != 0 {
			w = o
		}
		t.node[n>>1] = w
	}
}

// bankQueue is one bank's state in the closed loop.
type bankQueue struct {
	ws   []window  // the bank's refresh windows, in time order
	next int       // the first window that can still delay a request
	free dram.Time // when the bank finishes its queued work
	// closed and lastServed track refresh-induced row-buffer misses: a
	// refresh closes the open row, so the first access to a bank after
	// any refresh window pays the miss latency even if it would have
	// hit (Section III-A: "after refreshing, the next data access is
	// likely to have a row buffer miss"). closed is the first window not
	// yet known to have ended; lastServed is when the bank last
	// completed a request.
	closed     int
	lastServed dram.Time
}

// sized returns buf[:n] if buf has room for n elements, else a new slice.
func sized[T any](buf []T, n int) []T {
	if n <= cap(buf) {
		return buf[:n]
	}
	return make([]T, n)
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint {
	if b {
		return 1
	}
	return 0
}

// SimulateClosedLoop runs the closed-loop model until the horizon. Each
// request goes to the slot with the earliest next issue time, the lowest
// slot on a tie, picked from a winner tree in O(log slots).
func SimulateClosedLoop(cfg ClosedLoopConfig, sched RefreshSchedule, horizon dram.Time) ClosedLoopResult {
	slots := cfg.Cores * cfg.MLP
	if slots <= 0 {
		return ClosedLoopResult{Horizon: horizon}
	}
	busy := refreshWindows(cfg.Perf, sched, horizon)
	// The default geometry's 8 banks and Figure 17's 16 slots fit in
	// these without a heap allocation; larger loops allocate.
	var bankBuf [8]bankQueue
	var nodeBuf [32]slotEntry
	banks := sized(bankBuf[:], cfg.Perf.Banks)
	for b := range banks {
		banks[b].ws = busy[b]
	}
	// Stagger slot starts across one think period.
	tree := newSlotTree(nodeBuf[:], slots, func(j int) dram.Time {
		return dram.Time(float64(j) * cfg.ThinkNs / float64(slots))
	})
	rnd := rng.NewSplitMix(cfg.Seed ^ 0xc105ed100b)
	res := ClosedLoopResult{Horizon: horizon}
	// Piggyback a writeback with probability wf/(1-wf) (write traffic
	// share of total); it occupies the bank but does not stall the core.
	wf := cfg.WriteFrac
	writebacks, wbProb := wf > 0 && wf < 1, wf/(1-wf)
	hitSvc, missSvc := cfg.Perf.HitService, cfg.Perf.MissService

	for {
		s, arrive := tree.next()
		if arrive >= horizon {
			break
		}
		q := &banks[rnd.Intn(len(banks))]
		rowHit := rnd.Float64() < cfg.RowHitRate
		start := max(arrive, q.free)
		ws := q.ws
		i := q.next
		for i < len(ws) {
			w := ws[i]
			if w.end <= start {
				i++
				continue
			}
			// Service-time check below uses the miss latency bound,
			// conservative for hits.
			if w.start >= start+missSvc {
				break
			}
			res.RefreshWait += w.end - start
			start = w.end
			i++
		}
		q.next = i
		// Any refresh window that ended since the bank's last service
		// closed its open row: the access pays a row miss. This only
		// bites when the bank was in active use — an idle bank's row
		// would have been closed by the controller's idle-precharge
		// policy regardless, and that case is already priced into the
		// average RowHitRate.
		const openRowWindow = 500 // ns of bank inactivity before idle precharge
		j := q.closed
		for j < len(ws) && ws[j].end <= start {
			j++
		}
		if j > q.closed && ws[q.closed].end > q.lastServed &&
			start-q.lastServed < openRowWindow {
			rowHit = false
			res.RefreshRowMisses++
		}
		q.closed = j
		svc := missSvc
		if rowHit {
			svc = hitSvc
		}
		complete := start + svc
		q.free = complete
		q.lastServed = complete
		res.Reads++
		res.TotalLatency += complete - arrive
		if cfg.Perf.LatencyHist != nil {
			cfg.Perf.LatencyHist.Observe(int64(complete - arrive))
		}
		if writebacks && rnd.Float64() < wbProb {
			q.free += hitSvc
			res.Writebacks++
		}
		// Jitter the think time +/-25%: instruction counts between
		// misses vary, and a deterministic gap can phase-lock with the
		// refresh cadence and overstate (or hide) interference.
		think := cfg.ThinkNs * (0.75 + 0.5*rnd.Float64())
		tree.set(s, complete+dram.Time(think))
	}
	return res
}
