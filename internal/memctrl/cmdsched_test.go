package memctrl

import (
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/rng"
)

func cmdConfig() CmdConfig {
	return CmdConfig{
		Timing:     dram.DefaultTiming(), // tRCD=11 tRAS=28 tRP=11 tRRD=5 tFAW=24 tCAS=11 tBurst=4
		Banks:      8,
		ARInterval: 1 << 40, // effectively no refresh unless a test lowers it
		TRFCpb:     440,
	}
}

func TestCmdRowMissThenHit(t *testing.T) {
	s := NewCmdScheduler(cmdConfig())
	st := s.Run([]CmdRequest{
		{Arrive: 0, Bank: 0, Row: 5},   // miss: ACT+tRCD+tCAS+tBurst = 26
		{Arrive: 100, Bank: 0, Row: 5}, // hit: tCAS+tBurst = 15
		{Arrive: 200, Bank: 0, Row: 9}, // conflict: PRE+ACT first
	})
	if st.RowMisses != 1 || st.RowHits != 1 || st.RowConflicts != 1 {
		t.Fatalf("classification: %+v", st)
	}
	if st.Activates != 2 || st.Precharges != 1 {
		t.Fatalf("commands: %+v", st)
	}
	// Latency of the whole run: miss 26 + hit 15 + conflict (tRP 11 +
	// tRCD 11 + tCAS 11 + tBurst 4 = 37; tRAS already satisfied).
	if st.TotalLatency != 26+15+37 {
		t.Fatalf("TotalLatency = %d, want 78", st.TotalLatency)
	}
}

func TestCmdTRASEnforcedBeforePrecharge(t *testing.T) {
	s := NewCmdScheduler(cmdConfig())
	// Conflict immediately after an ACT: the precharge must wait out
	// tRAS from the activate.
	st := s.Run([]CmdRequest{
		{Arrive: 0, Bank: 0, Row: 1},
		{Arrive: 0, Bank: 0, Row: 2},
	})
	// First: ACT@0, data done at 0+11+11+4 = 26.
	// Second: PRE at max(tRAS=28, rwDone=26) = 28, ACT at 39, data at
	// 39+11+11+4 = 65; latency 65.
	if st.TotalLatency != 26+65 {
		t.Fatalf("TotalLatency = %d, want 91", st.TotalLatency)
	}
}

func TestCmdTRRDSpacing(t *testing.T) {
	s := NewCmdScheduler(cmdConfig())
	// Simultaneous misses to two banks: the second ACT waits tRRD.
	st := s.Run([]CmdRequest{
		{Arrive: 0, Bank: 0, Row: 1},
		{Arrive: 0, Bank: 1, Row: 1},
	})
	// First: 26. Second: ACT@5 (tRRD), data ready 5+26=31 but the bus
	// is busy until 26, burst collides: data at max(5+11+11, 26)=27..31
	// -> done 31; latency 31.
	if st.TotalLatency != 26+31 {
		t.Fatalf("TotalLatency = %d, want 57", st.TotalLatency)
	}
}

func TestCmdTFAWWindow(t *testing.T) {
	s := NewCmdScheduler(cmdConfig())
	reqs := make([]CmdRequest, 5)
	for i := range reqs {
		reqs[i] = CmdRequest{Arrive: 0, Bank: i, Row: 1}
	}
	s.Run(reqs)
	// ACTs at 0,5,10,15 (tRRD); the 5th must wait until tFAW after the
	// 1st: max(20, 0+24) = 24.
	if got := s.acts[len(s.acts)-1]; got != 24 {
		t.Fatalf("5th ACT at %d, want 24 (tFAW)", got)
	}
}

func TestCmdBusSerializesBursts(t *testing.T) {
	cfg := cmdConfig()
	s := NewCmdScheduler(cfg)
	// Open both rows first, then issue simultaneous hits.
	s.Run([]CmdRequest{
		{Arrive: 0, Bank: 0, Row: 1},
		{Arrive: 50, Bank: 1, Row: 1},
	})
	st := s.Run([]CmdRequest{
		{Arrive: 1000, Bank: 0, Row: 1},
		{Arrive: 1000, Bank: 1, Row: 1},
	})
	// Hits: first data 1011-1015; second must burst after: 1015-1019.
	// Latencies 15 and 19 on top of the earlier run's totals.
	delta := st.TotalLatency - 26 - (50 + 11 + 11 + 4 + 4 - 50) // prior run contributions
	_ = delta
	if st.RowHits != 2 {
		t.Fatalf("expected two hits, got %+v", st)
	}
}

func TestCmdRefreshClosesRowAndStalls(t *testing.T) {
	cfg := cmdConfig()
	cfg.ARInterval = 1000
	cfg.Sched = ConstantSchedule{Busy: 440}
	s := NewCmdScheduler(cfg)
	st := s.Run([]CmdRequest{
		{Arrive: 100, Bank: 0, Row: 7},  // opens row 7
		{Arrive: 1100, Bank: 0, Row: 7}, // REF at t=1000 closed it: miss again
	})
	if st.RowHits != 0 || st.RowMisses != 2 {
		t.Fatalf("refresh should close the row: %+v", st)
	}
	if st.Refreshes == 0 {
		t.Fatal("no refresh executed")
	}
	// The second request arrives mid-REF (1000..1440+) and stalls.
	if st.RefreshStall == 0 {
		t.Fatal("refresh stall not accounted")
	}
}

func TestCmdSkippedRefreshKeepsRowOpen(t *testing.T) {
	cfg := cmdConfig()
	cfg.ARInterval = 1000
	cfg.Sched = ConstantSchedule{Busy: 0} // ZERO-REFRESH skipping everything
	s := NewCmdScheduler(cfg)
	st := s.Run([]CmdRequest{
		{Arrive: 100, Bank: 0, Row: 7},
		{Arrive: 1100, Bank: 0, Row: 7},
	})
	if st.RowHits != 1 {
		t.Fatalf("skipped refresh should preserve the open row: %+v", st)
	}
	if st.RefreshStall != 0 || st.Refreshes != 0 {
		t.Fatalf("skipped refresh should cost nothing: %+v", st)
	}
}

func TestCmdFRFCFSBypass(t *testing.T) {
	s := NewCmdScheduler(cmdConfig())
	// Open row 1; then a conflict (row 2) arrives just before another
	// row-1 hit. FR-FCFS serves the hit first.
	st := s.Run([]CmdRequest{
		{Arrive: 0, Bank: 0, Row: 1},
		{Arrive: 10, Bank: 0, Row: 2},
		{Arrive: 11, Bank: 0, Row: 1},
	})
	if st.RowHits != 1 {
		t.Fatalf("bypass hit not served as hit: %+v", st)
	}
	// Strict FCFS would serve row2 (closing row 1) and turn the third
	// request into a conflict: 0 hits. The bypass saves a full
	// PRE+ACT+CAS round trip.
	if st.RowConflicts != 1 {
		t.Fatalf("conflict count: %+v", st)
	}
}

func TestCmdZeroRefreshBeatsConventional(t *testing.T) {
	// End-to-end: identical streams under a conventional schedule vs a
	// 60%-skipping ZERO-REFRESH schedule.
	gen := func(sched RefreshSchedule) CmdStats {
		cfg := cmdConfig()
		cfg.ARInterval = 3906
		cfg.Sched = sched
		s := NewCmdScheduler(cfg)
		var reqs []CmdRequest
		rnd := rng.NewSplitMix(42)
		t := dram.Time(0)
		row := 0
		for t < 2_000_000 {
			t += dram.Time(20 + rnd.Uint64()%60)
			if rnd.Float64() < 0.4 {
				row = rnd.Intn(512)
			}
			reqs = append(reqs, CmdRequest{Arrive: t, Bank: rnd.Intn(8), Row: row})
		}
		return s.Run(reqs)
	}
	conv := gen(ConstantSchedule{Busy: 440})
	zr := gen(SliceSchedule{Busy: [][]dram.Time{{440, 0, 0, 440, 0}, {0, 440, 0, 0, 0}, {440, 0, 0, 0, 0}, {0}, {440, 0}, {0}, {0, 440}, {0}}})
	if zr.AvgLatency() >= conv.AvgLatency() {
		t.Fatalf("ZR latency %.1f should beat conventional %.1f", zr.AvgLatency(), conv.AvgLatency())
	}
	if zr.RowHits <= conv.RowHits {
		t.Fatal("fewer refreshes should preserve more open rows")
	}
	if zr.RefreshStall >= conv.RefreshStall {
		t.Fatal("skipping should reduce refresh stalls")
	}
}

func TestCmdRefreshPausing(t *testing.T) {
	run := func(pause bool) CmdStats {
		cfg := cmdConfig()
		cfg.ARInterval = 1000
		cfg.Sched = ConstantSchedule{Busy: 440}
		cfg.PauseRefresh = pause
		s := NewCmdScheduler(cfg)
		return s.Run([]CmdRequest{
			{Arrive: 100, Bank: 0, Row: 7},
			{Arrive: 1100, Bank: 0, Row: 7}, // lands mid-REF (1000..1440)
		})
	}
	blocked := run(false)
	paused := run(true)
	if paused.RefreshPauses == 0 {
		t.Fatal("no pause recorded")
	}
	if paused.RefreshStall >= blocked.RefreshStall {
		t.Fatalf("pausing should cut the stall: %d vs %d", paused.RefreshStall, blocked.RefreshStall)
	}
	if paused.TotalLatency >= blocked.TotalLatency {
		t.Fatalf("pausing should cut latency: %d vs %d", paused.TotalLatency, blocked.TotalLatency)
	}
	// The refresh still completes: the bank's refresh tail extends past
	// the demand request rather than disappearing.
	if paused.Refreshes != blocked.Refreshes {
		t.Fatal("pausing must not drop refreshes")
	}
}

func TestCmdRefreshPausingPreservesLaterWork(t *testing.T) {
	// A third request after the resumed REF must wait for its tail.
	cfg := cmdConfig()
	cfg.ARInterval = 1000
	cfg.Sched = ConstantSchedule{Busy: 440}
	cfg.PauseRefresh = true
	s := NewCmdScheduler(cfg)
	st := s.Run([]CmdRequest{
		{Arrive: 1100, Bank: 0, Row: 7},
		{Arrive: 1200, Bank: 0, Row: 7}, // arrives while the REF tail runs
	})
	if st.RefreshStall == 0 {
		t.Fatal("second request should feel the resumed refresh")
	}
}

// TestCmdRefreshPauseQuantum pins the pause granularity: a request that
// lands mid-REF with pausing on waits exactly one row-segment quantum,
// TRFCpb/8, and is then served as a row miss (the REF closed the bank).
func TestCmdRefreshPauseQuantum(t *testing.T) {
	cfg := cmdConfig()
	cfg.ARInterval = 1000
	cfg.Sched = ConstantSchedule{Busy: 440}
	cfg.PauseRefresh = true
	st := NewCmdScheduler(cfg).Run([]CmdRequest{{Arrive: 1100, Bank: 0, Row: 7}})
	quantum := cfg.TRFCpb / 8
	if st.RefreshPauses != 1 || st.RefreshStall != quantum {
		t.Fatalf("paused %d times for %d ns, want once for TRFCpb/8 = %d ns", st.RefreshPauses, st.RefreshStall, quantum)
	}
	// Then ACT + tRCD + tCAS + tBurst = 26 ns.
	if want := int64(quantum) + 26; int64(st.TotalLatency) != want {
		t.Fatalf("TotalLatency = %d, want %d", st.TotalLatency, want)
	}
}
