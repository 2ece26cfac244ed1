package memctrl

import (
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/rng"
)

// Native fuzz targets for the controller-side bijections and the command
// engine's robustness. Normal test runs execute the seed corpus.

func FuzzAddressMapRoundTrip(f *testing.F) {
	f.Add(uint32(0))
	f.Add(uint32(12345))
	f.Add(uint32(1 << 20))
	cfg := dram.DefaultConfig(8 << 20)
	amap := NewAddressMap(cfg)
	max := uint64(cfg.Capacity()) / dram.LineBytes
	f.Fuzz(func(t *testing.T, n uint32) {
		addr := (uint64(n) % max) * dram.LineBytes
		loc, err := amap.Locate(addr)
		if err != nil {
			t.Fatalf("Locate(%#x): %v", addr, err)
		}
		if back := amap.Address(loc); back != addr {
			t.Fatalf("round trip %#x -> %+v -> %#x", addr, loc, back)
		}
		if loc.Bank < 0 || loc.Bank >= cfg.Banks || loc.Row < 0 || loc.Row >= cfg.RowsPerBank {
			t.Fatalf("location out of range: %+v", loc)
		}
	})
}

func FuzzCmdSchedulerNeverRegresses(f *testing.F) {
	f.Add(uint64(1), uint8(20))
	f.Add(uint64(42), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, n uint8) {
		cfg := CmdConfig{
			Timing:     dram.DefaultTiming(),
			Banks:      4,
			ARInterval: 500,
			TRFCpb:     200,
		}
		rnd := rng.NewSplitMix(seed)
		var reqs []CmdRequest
		at := dram.Time(0)
		for i := 0; i < int(n)+1; i++ {
			at += dram.Time(rnd.Uint64() % 200)
			reqs = append(reqs, CmdRequest{
				Arrive: at,
				Bank:   rnd.Intn(4),
				Row:    rnd.Intn(64),
				Write:  rnd.Float64() < 0.3,
			})
		}
		st := NewCmdScheduler(cfg).Run(reqs)
		if st.Requests != len(reqs) {
			t.Fatalf("served %d of %d", st.Requests, len(reqs))
		}
		if st.RowHits+st.RowMisses+st.RowConflicts != len(reqs) {
			t.Fatal("classification does not partition requests")
		}
		// Latency is at least the raw hit latency per request.
		min := dram.Time(len(reqs)) * (cfg.Timing.TCAS + cfg.Timing.TBurst)
		if st.TotalLatency < min {
			t.Fatalf("impossible latency %d < %d", st.TotalLatency, min)
		}
	})
}
