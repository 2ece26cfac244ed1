package baseline

import (
	"math"
	"testing"
)

func TestRetentionAwareSteadyState(t *testing.T) {
	r := NewRetentionAware(8, 4096, 1)
	// ~0.1% at 1x + ~2.9% at 1/2 + ~97% at 1/4 => ~0.258 normalized.
	want := fracBin0 + fracBin1/2 + (1-fracBin0-fracBin1)/4
	if got := r.SteadyStateNormalizedRefresh(); math.Abs(got-want) > 0.01 {
		t.Fatalf("steady-state normalized = %.4f, want ~%.4f", got, want)
	}
	// Averaged over 4 windows the measured ratio matches the analytic.
	var sum float64
	for i := 0; i < 4; i++ {
		sum += r.RunPolicyCycle(0).NormalizedRefresh()
	}
	if got := sum / 4; math.Abs(got-want) > 0.01 {
		t.Fatalf("measured normalized = %.4f, want ~%.4f", got, want)
	}
}

func TestRetentionAwareWindowPhases(t *testing.T) {
	r := NewRetentionAware(1, 1000, 2)
	// Window 0: everything due.
	st := r.RunPolicyCycle(0)
	if st.Skipped != 0 {
		t.Fatalf("window 0 skipped %d rows", st.Skipped)
	}
	// Window 1: only bin-0 rows due.
	st = r.RunPolicyCycle(0)
	if st.Refreshed >= st.Steps/2 {
		t.Fatalf("window 1 refreshed %d of %d", st.Refreshed, st.Steps)
	}
	if r.UnsafeSkips() != 0 {
		t.Fatal("accurate profile produced unsafe skips")
	}
}

func TestRetentionAwareVRTHazard(t *testing.T) {
	r := NewRetentionAware(8, 2048, 3)
	demoted := r.InjectVRT(0.01, 4)
	if demoted == 0 {
		t.Fatal("VRT injection demoted nothing")
	}
	for i := 0; i < 8; i++ {
		r.RunPolicyCycle(0)
	}
	if r.UnsafeSkips() == 0 {
		t.Fatal("stale profile should produce unsafe skips under VRT")
	}
	// The profile itself is static: normalized refresh is unchanged.
	fresh := NewRetentionAware(8, 2048, 3)
	if fresh.SteadyStateNormalizedRefresh() != r.SteadyStateNormalizedRefresh() {
		t.Fatal("VRT should not change the (stale) schedule")
	}
}

func TestRetentionAwareDeterminism(t *testing.T) {
	a := NewRetentionAware(4, 512, 7)
	b := NewRetentionAware(4, 512, 7)
	if a.SteadyStateNormalizedRefresh() != b.SteadyStateNormalizedRefresh() {
		t.Fatal("profiles not deterministic")
	}
	c := NewRetentionAware(4, 512, 8)
	if a.SteadyStateNormalizedRefresh() == c.SteadyStateNormalizedRefresh() {
		// Different seeds will almost surely differ at this size.
		t.Log("seeds produced identical profiles (unlikely but possible)")
	}
}

func TestRetentionAwareTotals(t *testing.T) {
	r := NewRetentionAware(1, 100, 1)
	r.RunPolicyCycle(0)
	r.RunPolicyCycle(0)
	refreshed, skipped := r.Totals()
	if refreshed+skipped != 200 {
		t.Fatalf("totals %d+%d != 200", refreshed, skipped)
	}
}

func TestRetentionAwareBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRetentionAware(0, 10, 1)
}
