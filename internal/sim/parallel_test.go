package sim

import (
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"zerorefresh/internal/engine"
	"zerorefresh/internal/trace"
)

// TestForEachPanicPropagation is the regression test for the crash mode
// this wrapper exists to prevent: a panic inside one experiment unit used
// to escape an anonymous worker goroutine and abort the entire process.
// Now it must come back as an ordinary error identifying the unit.
func TestForEachPanicPropagation(t *testing.T) {
	var visited atomic.Int64
	err := forEach(Options{}, 64, func(i int, _ Options) error {
		visited.Add(1)
		if i == 41 {
			panic("benchmark blew up")
		}
		return nil
	})
	if err == nil {
		t.Fatal("forEach swallowed a worker panic")
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *engine.PanicError", err)
	}
	if pe.Index != 41 {
		t.Fatalf("PanicError.Index = %d, want 41", pe.Index)
	}
	if pe.Value != "benchmark blew up" {
		t.Fatalf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("PanicError carries no stack")
	}
	if !strings.Contains(err.Error(), "item 41") {
		t.Fatalf("error message %q does not name the item", err)
	}
	if n := visited.Load(); n == 0 || n > 64 {
		t.Fatalf("visited %d items, want between 1 and 64", n)
	}
}

// TestForEachFirstError checks that a plain error still short-circuits and
// wins over later items.
func TestForEachFirstError(t *testing.T) {
	sentinel := errors.New("unit failed")
	err := forEach(Options{}, 16, func(i int, _ Options) error {
		if i == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("forEach returned %v, want the unit's error", err)
	}
}

// TestForEachTraceShardsFollowUnitOrder forces unit 1 to build its system
// before unit 0 does: unit 0's shards must still take the lower ids, and
// every event they hold must carry its shard's id.
func TestForEachTraceShardsFollowUnitOrder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	o := quickOptions().withDefaults()
	o.Trace = trace.New(1 << 12)
	prof := o.Benchmarks[0]
	unit1Built := make(chan struct{})
	err := forEach(o, 2, func(i int, uo Options) error {
		if i == 0 {
			<-unit1Built
		}
		sys, err := uo.newSystem()
		if i == 1 {
			close(unit1Built)
		}
		if err != nil {
			return err
		}
		// Unit i fills i+1 pages, so the units' rank shards differ.
		for p := 0; p <= i; p++ {
			if err := sys.FillPageFromProfile(prof, p, o.Seed, 0); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	shards := o.Trace.Shards()
	labels := []string{"cpu", "rank0", "cpu", "rank0"}
	if len(shards) != len(labels) {
		t.Fatalf("%d shards, want %d", len(shards), len(labels))
	}
	for i, sh := range shards {
		if sh.ID() != int32(i) || sh.Label() != labels[i] {
			t.Fatalf("shard %d is %q id %d, want %q id %d", i, sh.Label(), sh.ID(), labels[i], i)
		}
		for _, e := range sh.Events() {
			if e.Shard != int32(i) {
				t.Fatalf("shard %d holds an event stamped with shard %d", i, e.Shard)
			}
		}
	}
	if a, b := shards[1].Len(), shards[3].Len(); a == 0 || b <= a {
		t.Fatalf("rank shards hold %d and %d events: unit 0's (one page) must come first", a, b)
	}
}
