package zerorefresh_test

import (
	"testing"

	"zerorefresh"
)

// The facade tests exercise the library exactly as the examples and an
// external adopter would.

func TestPublicQuickstartFlow(t *testing.T) {
	sys, err := zerorefresh.NewSystem(zerorefresh.DefaultConfig(4 << 20))
	if err != nil {
		t.Fatal(err)
	}
	prof, ok := zerorefresh.BenchmarkByName("libquantum")
	if !ok {
		t.Fatal("libquantum missing")
	}
	for p := 0; p < sys.Pages()/4; p++ {
		if err := sys.FillPageFromProfile(prof, p, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	sys.RunWindow()
	st := sys.RunWindow()
	if st.Reduction() < 0.5 {
		t.Fatalf("3/4-idle rank reduction %.3f, want > 0.5", st.Reduction())
	}
	if err := sys.VerifyPage(prof, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if sys.DecayEvents() != 0 {
		t.Fatal("retention failure")
	}
}

func TestPublicTransformAPI(t *testing.T) {
	var raw [64]byte
	for i := range raw {
		raw[i] = byte(i)
	}
	l := zerorefresh.LineFromBytes(&raw)
	enc := zerorefresh.BitPlaneTranspose(zerorefresh.EBDIEncode(l))
	dec := zerorefresh.EBDIDecode(zerorefresh.BitPlaneInverse(enc))
	if dec != l {
		t.Fatal("public transform round trip failed")
	}
	if got := dec.Bytes(); got != raw {
		t.Fatal("byte serialization round trip failed")
	}
}

func TestPublicSuiteAndTraces(t *testing.T) {
	if n := len(zerorefresh.Benchmarks()); n != 23 {
		t.Fatalf("suite size %d, want 23", n)
	}
	if n := len(zerorefresh.Traces()); n != 3 {
		t.Fatalf("traces %d, want 3", n)
	}
	if _, ok := zerorefresh.TraceByName("google"); !ok {
		t.Fatal("google trace missing")
	}
	a := zerorefresh.NewAllocator(100)
	if err := a.SetTargetFraction(0.5); err != nil {
		t.Fatal(err)
	}
	if a.AllocatedPages() != 50 {
		t.Fatalf("allocated %d, want 50", a.AllocatedPages())
	}
}

func TestPublicMappings(t *testing.T) {
	for _, m := range []zerorefresh.ChipMapping{
		zerorefresh.RotatedMapping(), zerorefresh.DirectMapping(), zerorefresh.ByteScatterMapping(),
	} {
		l := zerorefresh.Line{1, 2, 3, 4, 5, 6, 7, 8}
		if m.Gather(m.Scatter(l, 5), 5) != l {
			t.Fatalf("mapping %s not lossless", m.Name())
		}
	}
}

func TestPublicExperimentSmoke(t *testing.T) {
	o := zerorefresh.ExperimentOptions{Capacity: 4 << 20, Windows: 2}
	prof, _ := zerorefresh.BenchmarkByName("sphinx3")
	res, err := zerorefresh.RunScenario(o, prof, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reduction <= 0 {
		t.Fatal("expected refresh reduction")
	}
	// Table I, run through the catalogue, has one row per trace.
	for _, e := range zerorefresh.Experiments() {
		if e.ID != "table1" {
			continue
		}
		if tab, _, err := e.Run(o); err != nil || len(tab.Rows) != 3 {
			t.Fatalf("Table I through the catalogue: %v, want three traces", err)
		}
	}
}

func TestRetentionConstants(t *testing.T) {
	if zerorefresh.TRETNormal != 2*zerorefresh.TRETExtended {
		t.Fatal("normal retention must be double the extended window")
	}
}
