package sim

import "testing"

func TestLongHorizonShape(t *testing.T) {
	o := quickOptions()
	o.Windows = 1 // 1024-window horizon: long enough to prove replay, quick in CI
	tb, err := RunLongHorizon(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("want 3 burst spacings, got %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if r.Values[0] != 1024 {
			t.Fatalf("%s: ran %v windows, want 1024", r.Name, r.Values[0])
		}
		if r.Values[1] < 0.9 {
			t.Fatalf("%s: replayed fraction %.3f, want >0.9 on a sparse horizon", r.Name, r.Values[1])
		}
		if r.Values[4] != 0 {
			t.Fatalf("%s: %v probe violations, want 0", r.Name, r.Values[4])
		}
	}
}
