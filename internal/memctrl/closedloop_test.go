package memctrl

import (
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/metrics"
)

func clConfig() ClosedLoopConfig {
	return ClosedLoopConfig{
		Perf: PerfConfig{
			Banks: 8, ARInterval: 3906,
			HitService: 15, MissService: 37,
		},
		Cores: 4, MLP: 4, ThinkNs: 100,
		RowHitRate: 0.5, WriteFrac: 0.3, Seed: 1,
	}
}

func TestClosedLoopThinkBoundThroughput(t *testing.T) {
	cfg := clConfig()
	cfg.ThinkNs = 1000 // think-dominated: memory nearly idle
	horizon := dram.Time(2_000_000)
	r := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	// 16 slots cycling every ~(1000+~26)ns over 2ms ~= 31k requests.
	slots := float64(cfg.Cores * cfg.MLP)
	expected := slots * float64(horizon) / (1000 + 26)
	if f := float64(r.Reads) / expected; f < 0.9 || f > 1.1 {
		t.Fatalf("reads = %d, expected ~%.0f", r.Reads, expected)
	}
	if r.RefreshWait != 0 {
		t.Fatal("no-refresh run accumulated refresh wait")
	}
}

func TestClosedLoopRefreshReducesThroughput(t *testing.T) {
	cfg := clConfig()
	horizon := dram.Time(2_000_000)
	free := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	loaded := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 880}, horizon)
	if loaded.Reads >= free.Reads {
		t.Fatalf("refresh did not cost throughput: %d vs %d", loaded.Reads, free.Reads)
	}
	if loaded.AvgLatency() <= free.AvgLatency() {
		t.Fatal("refresh did not raise latency")
	}
	if loaded.RefreshWait == 0 {
		t.Fatal("refresh wait not accounted")
	}
}

func TestClosedLoopSkippingRecovers(t *testing.T) {
	cfg := clConfig()
	horizon := dram.Time(2_000_000)
	// A schedule where every other AR is fully skipped beats the
	// constant schedule and loses to the free one.
	half := SliceSchedule{Busy: make([][]dram.Time, 8)}
	for b := range half.Busy {
		half.Busy[b] = []dram.Time{880, 0}
	}
	full := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 880}, horizon)
	part := SimulateClosedLoop(cfg, half, horizon)
	free := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	if !(full.Reads < part.Reads && part.Reads < free.Reads) {
		t.Fatalf("ordering violated: %d / %d / %d", full.Reads, part.Reads, free.Reads)
	}
}

func TestClosedLoopDeterminism(t *testing.T) {
	cfg := clConfig()
	a := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, 500_000)
	b := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, 500_000)
	if a != b {
		t.Fatal("closed loop not deterministic for equal seeds")
	}
	cfg.Seed = 2
	c := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, 500_000)
	if a == c {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestClosedLoopWritebacksShareBandwidth(t *testing.T) {
	cfg := clConfig()
	cfg.ThinkNs = 0 // memory-bound
	horizon := dram.Time(1_000_000)
	cfg.WriteFrac = 0
	noWrites := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	cfg.WriteFrac = 0.4
	withWrites := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	if withWrites.Writebacks == 0 {
		t.Fatal("no writebacks generated")
	}
	if withWrites.Reads >= noWrites.Reads {
		t.Fatal("writebacks should consume read bandwidth in a bound system")
	}
}

func TestClosedLoopZeroSlots(t *testing.T) {
	cfg := clConfig()
	cfg.Cores = 0
	r := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, 1000)
	if r.Reads != 0 {
		t.Fatal("no slots should mean no requests")
	}
}

func TestClosedLoopAllBankPolicyHurtsMore(t *testing.T) {
	cfg := clConfig()
	horizon := dram.Time(2_000_000)
	per := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 880}, horizon)
	cfg.Perf.AllBank = true
	all := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 880}, horizon)
	// With synchronized windows the two policies coincide; stagger the
	// schedule per bank to expose the difference.
	cfg.Perf.AllBank = false
	stag := SliceSchedule{Busy: make([][]dram.Time, 8)}
	for b := range stag.Busy {
		row := make([]dram.Time, 8)
		row[b] = 880 * 8 // same total busy, different phase per bank
		stag.Busy[b] = row
	}
	perStag := SimulateClosedLoop(cfg, stag, horizon)
	cfg.Perf.AllBank = true
	allStag := SimulateClosedLoop(cfg, stag, horizon)
	if allStag.Reads > perStag.Reads {
		t.Fatalf("all-bank blocking should not beat per-bank: %d vs %d", allStag.Reads, perStag.Reads)
	}
	_ = per
	_ = all
}

func TestClosedLoopRefreshClosesRows(t *testing.T) {
	cfg := clConfig()
	cfg.RowHitRate = 1.0 // every access would hit, absent refresh
	horizon := dram.Time(2_000_000)
	free := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, horizon)
	if free.RefreshRowMisses != 0 {
		t.Fatal("row misses without refresh")
	}
	loaded := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, horizon)
	if loaded.RefreshRowMisses == 0 {
		t.Fatal("refresh should close open rows")
	}
	// The forced misses show up as extra latency beyond the pure
	// blocking wait.
	extra := loaded.TotalLatency - loaded.RefreshWait
	if float64(extra)/float64(loaded.Reads) <= float64(free.TotalLatency)/float64(free.Reads) {
		t.Fatal("refresh-induced row misses not reflected in latency")
	}
}

// oneBankLoop is a closed loop of slots request slots over a single bank
// where every access misses and nothing is written back, so each request's
// latency is exactly its queue wait + refresh wait + MissService. Slot i
// first issues at i*thinkNs/slots.
func oneBankLoop(slots int, thinkNs float64) ClosedLoopConfig {
	return ClosedLoopConfig{
		Perf:  PerfConfig{Banks: 1, ARInterval: 1000, HitService: 10, MissService: 40},
		Cores: 1, MLP: slots, ThinkNs: thinkNs, Seed: 1,
	}
}

func TestPerfNoRefreshNoQueue(t *testing.T) {
	cfg := oneBankLoop(1, 100)
	res := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, 10_000)
	if res.Reads < 10 || res.TotalLatency != 40*dram.Time(res.Reads) {
		t.Fatalf("misses: %d reads, TotalLatency %d, want 40 each", res.Reads, res.TotalLatency)
	}
	if res.RefreshWait != 0 || res.Writebacks != 0 {
		t.Fatalf("unexpected waits or writebacks: %+v", res)
	}
	cfg.RowHitRate = 1
	res = SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, 10_000)
	if res.Reads == 0 || res.TotalLatency != 10*dram.Time(res.Reads) {
		t.Fatalf("hits: %d reads, TotalLatency %d, want 10 each", res.Reads, res.TotalLatency)
	}
}

func TestPerfQueueingSameBank(t *testing.T) {
	// Slot 0 issues at 0 (served 0-40), slot 1 at 10: it waits 30 and is
	// served 40-80. Both slots' next issues fall past the horizon.
	res := SimulateClosedLoop(oneBankLoop(2, 20), ConstantSchedule{Busy: 0}, 11)
	if res.Reads != 2 || res.TotalLatency != 40+70 {
		t.Fatalf("Reads = %d, TotalLatency = %d, want 2 and 110", res.Reads, res.TotalLatency)
	}
}

func TestPerfRefreshBlocksBank(t *testing.T) {
	// AR at t=0 busy 100ns: the request issued at 0 waits until 100.
	cfg := oneBankLoop(1, 1000)
	res := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 100}, 1)
	if res.Reads != 1 || res.RefreshWait != 100 || res.TotalLatency != 100+40 {
		t.Fatalf("blocked request: %+v", res)
	}
	// A zero-busy schedule (ZERO-REFRESH skipping the whole AR) removes
	// the wait entirely.
	res = SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, 1)
	if res.RefreshWait != 0 || res.TotalLatency != 40 {
		t.Fatalf("skip schedule: %+v", res)
	}
}

func TestPerfRequestStartedBeforeRefreshFinishes(t *testing.T) {
	// Slot 1 issues at 990, just before the AR at t=1000 (busy 100). Its
	// service 990-1030 would overlap the window, and the model does not
	// preempt, so the start is pushed to 1100.
	sched := SliceSchedule{Busy: [][]dram.Time{{0, 100}}}
	res := SimulateClosedLoop(oneBankLoop(2, 1980), sched, 1001)
	if res.Reads != 2 || res.RefreshWait != 110 || res.TotalLatency != 40+150 {
		t.Fatalf("overlap not handled: %+v", res)
	}
}

func TestPerfHorizonCutsRequests(t *testing.T) {
	cfg := oneBankLoop(1, 5000)
	if res := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, 1000); res.Reads != 1 {
		t.Fatalf("Reads = %d, want 1", res.Reads)
	}
	if res := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 0}, 0); res.Reads != 0 {
		t.Fatalf("zero horizon: Reads = %d, want 0", res.Reads)
	}
}

func perfConfig() PerfConfig {
	return PerfConfig{Banks: 4, ARInterval: 1000, HitService: 10, MissService: 40}
}

func TestPerfAllBankBlocksEveryBank(t *testing.T) {
	cfg := perfConfig()
	// Only banks 0 and 1 have refresh work, and their windows overlap.
	sched := SliceSchedule{Busy: [][]dram.Time{{100}, {150}, {0}, {0}}}
	if busy := refreshWindows(cfg, sched, 900); len(busy[3]) != 0 {
		t.Fatalf("per-bank refresh blocked an idle bank: %v", busy[3])
	}
	cfg.AllBank = true
	busy := refreshWindows(cfg, sched, 900)
	for b, ws := range busy {
		if len(ws) != 1 || ws[0] != (window{0, 150}) {
			t.Fatalf("bank %d all-bank windows = %v, want the merged [0,150)", b, ws)
		}
	}
}

func TestPerfSliceScheduleCycles(t *testing.T) {
	s := SliceSchedule{Busy: [][]dram.Time{{5, 0, 7}}}
	for k, want := range map[int]dram.Time{0: 5, 1: 0, 2: 7, 3: 5, 5: 7} {
		if got := s.ARBusy(0, k); got != want {
			t.Errorf("ARBusy(0,%d) = %d, want %d", k, got, want)
		}
	}
	empty := SliceSchedule{Busy: [][]dram.Time{{}}}
	if empty.ARBusy(0, 3) != 0 {
		t.Error("empty schedule should be zero")
	}
}

func TestPerfBusyRefreshAccounting(t *testing.T) {
	busy := refreshWindows(perfConfig(), ConstantSchedule{Busy: 100}, 3000)
	// 3 windows per bank (t=0,1000,2000) x 4 banks x 100ns.
	var total dram.Time
	for _, ws := range busy {
		for _, w := range ws {
			total += w.end - w.start
		}
	}
	if total != 1200 {
		t.Fatalf("busy refresh = %d, want 1200", total)
	}
}

func TestDefaultPerfConfig(t *testing.T) {
	dcfg := dram.DefaultConfig(8 << 20)
	pc := DefaultPerfConfig(dcfg, 256)
	if pc.Banks != 8 {
		t.Fatalf("Banks = %d", pc.Banks)
	}
	if pc.ARInterval != dcfg.Timing.TRET/256 {
		t.Fatalf("ARInterval = %d", pc.ARInterval)
	}
	if pc.MissService <= pc.HitService {
		t.Fatal("miss service must exceed hit service")
	}
}

func TestClosedLoopRecord(t *testing.T) {
	res := SimulateClosedLoop(clConfig(), ConstantSchedule{Busy: 350}, 500_000)
	reg := metrics.NewRegistry()
	res.Record(reg)
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"perf.reads":              res.Reads,
		"perf.writebacks":         res.Writebacks,
		"perf.refresh_row_misses": res.RefreshRowMisses,
	} {
		if got := snap.Counter(name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	for name, want := range map[string]float64{
		"perf.avg_latency_ns":  res.AvgLatency(),
		"perf.refresh_wait_ns": float64(res.RefreshWait),
		"perf.horizon_ns":      float64(res.Horizon),
	} {
		if got, ok := snap.Get(name); !ok || got.Float != want {
			t.Fatalf("%s = %v, want %v", name, got.Float, want)
		}
	}
}

// TestClosedLoopLatencyHist checks that the latency histogram sees every
// demand miss exactly once and that observing does not perturb the run.
func TestClosedLoopLatencyHist(t *testing.T) {
	cfg := clConfig()
	plain := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, 500_000)
	cfg.Perf.LatencyHist = metrics.NewRegistry().Histogram("perf.latency_ns")
	observed := SimulateClosedLoop(cfg, ConstantSchedule{Busy: 350}, 500_000)
	if observed != plain {
		t.Fatalf("histogram changed the run: %+v vs %+v", observed, plain)
	}
	h := cfg.Perf.LatencyHist
	if h.Count() != plain.Reads || h.Sum() != int64(plain.TotalLatency) {
		t.Fatalf("histogram count/sum = %d/%d, want %d/%d",
			h.Count(), h.Sum(), plain.Reads, plain.TotalLatency)
	}
}
