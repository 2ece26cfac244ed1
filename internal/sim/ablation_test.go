package sim

import "testing"

// TestAblationFullDesignMatchesFig14 pins the ablation table to the
// headline experiment: its unedited row runs the same populate-and-measure
// code as Figure 14, so its reduction must equal 1 - Figure 14's 100%
// sphinx3 cell exactly.
func TestAblationFullDesignMatchesFig14(t *testing.T) {
	o := quickOptions()
	o.Benchmarks = profiles("sphinx3")
	if ablations[0].name != "full design" {
		t.Fatalf("first ablation row is %q, want the full design", ablations[0].name)
	}
	full, err := ablations[0].run(o, o.Benchmarks[0])
	if err != nil {
		t.Fatal(err)
	}
	fig14, err := RunFig14(o)
	if err != nil {
		t.Fatal(err)
	}
	cell, _ := fig14.Find("sphinx3")
	if want := 1 - cell.Values[0]; full[0] != want {
		t.Fatalf("full design reduction %v, want 1 - Figure 14's 100%% cell = %v", full[0], want)
	}
}
