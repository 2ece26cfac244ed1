package baseline

import (
	"math"
	"testing"
)

func TestSmartRefreshSkipsTouchedRows(t *testing.T) {
	s := NewSmartRefresh(2, 100)
	s.NoteWrite(0, 5)
	s.NoteWrite(0, 5) // duplicate: counted once
	s.NoteWrite(1, 99)
	st := s.RunPolicyCycle(0)
	if st.Steps != 200 || st.Skipped != 2 || st.Refreshed != 198 {
		t.Fatalf("stats %+v", st)
	}
	// The window resets: nothing skips next time.
	st = s.RunPolicyCycle(0)
	if st.Skipped != 0 {
		t.Fatalf("stale touches survived: %+v", st)
	}
}

func TestSmartRefreshNormalized(t *testing.T) {
	s := NewSmartRefresh(1, 10)
	for r := 0; r < 4; r++ {
		s.NoteWrite(0, r)
	}
	st := s.RunPolicyCycle(0)
	if math.Abs(st.NormalizedRefresh()-0.6) > 1e-12 {
		t.Fatalf("normalized = %v, want 0.6", st.NormalizedRefresh())
	}
}

func TestSmartRefreshCapacityScaling(t *testing.T) {
	// The Figure 19 effect: a fixed touched footprint helps less and
	// less as capacity grows.
	touched := 1000
	var prev float64 = -1
	for _, rows := range []int{2000, 4000, 8000, 16000} {
		s := NewSmartRefresh(1, rows)
		for r := 0; r < touched; r++ {
			s.NoteWrite(0, r)
		}
		n := s.RunPolicyCycle(0).NormalizedRefresh()
		if n <= prev {
			t.Fatalf("normalized refresh should grow with capacity: %v after %v", n, prev)
		}
		prev = n
	}
	if prev < 0.9 {
		t.Fatalf("large-capacity normalized refresh = %v, want ~0.94 ballpark", prev)
	}
}

func TestSmartRefreshTotals(t *testing.T) {
	s := NewSmartRefresh(1, 10)
	s.NoteWrite(0, 1)
	s.RunPolicyCycle(0)
	s.RunPolicyCycle(0)
	cycles, refreshed, skipped := s.Totals()
	if cycles != 2 || refreshed != 19 || skipped != 1 {
		t.Fatalf("totals = %d/%d/%d", cycles, refreshed, skipped)
	}
}

func TestSmartRefreshBounds(t *testing.T) {
	s := NewSmartRefresh(1, 10)
	for _, fn := range []func(){
		func() { s.NoteWrite(-1, 0) },
		func() { s.NoteWrite(0, 10) },
		func() { s.NoteWrite(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad geometry")
		}
	}()
	NewSmartRefresh(0, 1)
}
