package sim

import (
	"bytes"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"zerorefresh/internal/engine"
	"zerorefresh/internal/trace"
)

// TestRefreshMatrixMatchesScenarios pins the populate-once matrix driver
// against independent runs: every cell must be reflect.DeepEqual to a
// RunScenario of that benchmark and fraction, metrics snapshot and
// timeline included. Small cell groups put anti-cell rows in the rank.
// The traced variant also checks the trace: per benchmark, the matrix
// holds the shards of the system measured at 100% and then of the clones
// in ascending allocation, and each shard must hold the events, sequence
// numbers and drop count of the independent run's matching shard. The
// rings are small enough to overflow, so the copied rings wrap.
func TestRefreshMatrixMatchesScenarios(t *testing.T) {
	for _, traced := range []bool{false, true} {
		o := quickOptions()
		o.CellGroupRows = 8
		o.Benchmarks = profiles("mcf", "sphinx3")
		o.Timeline = traced
		const shardCap = 1 << 12
		if traced {
			o.Trace = trace.New(shardCap)
		}
		m, err := RunRefreshMatrix(o)
		if err != nil {
			t.Fatal(err)
		}
		var want []*trace.Shard
		for _, prof := range o.Benchmarks {
			// The order the matrix measures a benchmark's fractions in.
			for _, frac := range []float64{1.0, 0.28, 0.70, 0.88} {
				oo := o
				if traced {
					oo.Trace = trace.New(shardCap)
				}
				res, err := RunScenario(oo, prof, frac)
				if err != nil {
					t.Fatal(err)
				}
				var got ScenarioResult
				for _, sc := range Scenarios() {
					if sc.AllocFrac == frac {
						got = m[prof.Name][sc.Name]
					}
				}
				if !reflect.DeepEqual(got, res) {
					t.Fatalf("traced=%v %s at %.2f: matrix cell differs from RunScenario:\nmatrix %+v\nalone  %+v",
						traced, prof.Name, frac, got.Cycles, res.Cycles)
				}
				if traced {
					want = append(want, oo.Trace.Shards()...)
				}
			}
		}
		if !traced {
			continue
		}
		got := o.Trace.Shards()
		if len(got) != len(want) {
			t.Fatalf("matrix trace has %d shards, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].ID() != int32(i) || got[i].Label() != want[i].Label() {
				t.Fatalf("shard %d is %q id %d, want %q id %d", i, got[i].Label(), got[i].ID(), want[i].Label(), i)
			}
			if got[i].Dropped() != want[i].Dropped() || want[i].Dropped() == 0 {
				t.Fatalf("shard %d dropped %d events, the independent run %d (want equal and non-zero)",
					i, got[i].Dropped(), want[i].Dropped())
			}
			a, b := got[i].Events(), want[i].Events()
			for j := range b {
				b[j].Shard = int32(i)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("shard %d (%s) holds other events than the independent run's", i, got[i].Label())
			}
		}
	}
}

// TestTracedFig14IsDeterministic exports the traced Figure 14 matrix
// twice, the second time holding the first system's wiring until another
// unit has wired its own, so the units create their shards in another
// order: the NDJSON exports must still be byte-identical.
func TestTracedFig14IsDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	export := func(hold bool) []byte {
		o := quickOptions()
		o.Windows = 1
		o.Benchmarks = profiles("mcf", "sphinx3")
		o.Trace = trace.New(1 << 10)
		var cpuShards atomic.Int32
		second := make(chan struct{})
		o.Observer = &Observer{TraceSink: func(label string, sh engine.Tracer) engine.Tracer {
			if hold && label == "cpu" {
				switch cpuShards.Add(1) {
				case 1:
					<-second
				case 2:
					close(second)
				}
			}
			return sh
		}}
		if _, err := RunFig14(o); err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := trace.WriteNDJSON(&b, o.Trace); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	if a, b := export(false), export(true); !bytes.Equal(a, b) {
		t.Fatalf("two traced fig14 runs exported different NDJSON (%d vs %d bytes)", len(a), len(b))
	}
}
