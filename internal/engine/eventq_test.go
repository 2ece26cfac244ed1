package engine

import (
	"math/rand"
	"testing"

	"zerorefresh/internal/dram"
)

// TestEventQueueDrainOrder is the queue's property test: under random
// interleaved push/pop sequences, every pop returns exactly the minimum of
// the current contents under the (time, kind, rank, seq) order — checked
// against a naive reference model — and the final drain is nondecreasing,
// with insertion order breaking ties among events whose (time, kind, rank)
// collide.
func TestEventQueueDrainOrder(t *testing.T) {
	kinds := []EventKind{KindRetentionCheck, KindWriteBurst, KindWindow, KindUser}
	for trial := 0; trial < 50; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1))
		q := NewEventQueue()
		// model mirrors the queue's pending set; popModel removes its
		// minimum by linear scan.
		var model []Event
		var seq uint64
		popModel := func() Event {
			best := 0
			for i := 1; i < len(model); i++ {
				if eventLess(model[i], model[best]) {
					best = i
				}
			}
			e := model[best]
			model = append(model[:best], model[best+1:]...)
			return e
		}
		checkPop := func() Event {
			e, ok := q.Pop()
			if !ok {
				t.Fatalf("trial %d: Pop failed with %d modeled events", trial, len(model))
			}
			want := popModel()
			if e.Time != want.Time || e.Kind != want.Kind || e.Rank != want.Rank || e.Seq != want.Seq {
				t.Fatalf("trial %d: popped %+v, reference model says %+v", trial, e, want)
			}
			return e
		}
		for op := 0; op < 2000; op++ {
			if len(model) == 0 || rng.Intn(3) != 0 {
				// Small key ranges force heavy (time, kind, rank)
				// collisions so the Seq tie-break is actually exercised.
				e := Event{
					Time: dram.Time(rng.Intn(16)),
					Kind: kinds[rng.Intn(len(kinds))],
					Rank: int32(rng.Intn(3)) - 1,
				}
				q.Push(e)
				e.Seq = seq
				seq++
				model = append(model, e)
			} else {
				checkPop()
			}
		}
		var last Event
		for n := 0; q.Len() > 0; n++ {
			e := checkPop()
			if n > 0 && eventLess(e, last) {
				t.Fatalf("trial %d: drain popped %+v after %+v", trial, e, last)
			}
			last = e
		}
		if len(model) != 0 {
			t.Fatalf("trial %d: queue drained with %d modeled events left", trial, len(model))
		}
		if _, ok := q.Pop(); ok {
			t.Fatalf("trial %d: Pop succeeded on empty queue", trial)
		}
	}
}

// TestEventQueueFIFOTies pins the tie-break of last resort: events with
// identical (time, kind, rank) pop in exactly their insertion order, even
// when interleaved with pops.
func TestEventQueueFIFOTies(t *testing.T) {
	q := NewEventQueue()
	order := make([]int, 0, 64)
	next := 0
	push := func(n int) {
		for i := 0; i < n; i++ {
			id := next
			next++
			q.Schedule(7, KindUser, 0, func(dram.Time) { order = append(order, id) })
		}
	}
	pop := func(n int) {
		for i := 0; i < n; i++ {
			e, ok := q.Pop()
			if !ok {
				t.Fatal("queue drained early")
			}
			e.Fn(e.Time)
		}
	}
	push(10)
	pop(4)
	push(10)
	pop(16)
	if len(order) != 20 {
		t.Fatalf("popped %d events, want 20", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("pop %d delivered event %d: FIFO tie-break violated (%v)", i, id, order)
		}
	}
}

// TestEventQueueKindOrder pins the kind precedence at one instant:
// retention probes, then write bursts, then windows, then user events.
func TestEventQueueKindOrder(t *testing.T) {
	q := NewEventQueue()
	var got []EventKind
	for _, k := range []EventKind{KindUser, KindWindow, KindWriteBurst, KindRetentionCheck} {
		k := k
		q.Schedule(5, k, -1, func(dram.Time) { got = append(got, k) })
	}
	// An earlier event outranks every kind.
	q.Schedule(4, KindUser, -1, func(dram.Time) { got = append(got, KindUser) })
	for q.Len() > 0 {
		e, _ := q.Pop()
		e.Fn(e.Time)
	}
	want := []EventKind{KindUser, KindRetentionCheck, KindWriteBurst, KindWindow, KindUser}
	if len(got) != len(want) {
		t.Fatalf("popped %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop sequence %v, want %v", got, want)
		}
	}
}

// pushPopFixture returns the queue's steady-state op: push one event into
// and pop one event out of a queue holding 1024 pending events with
// colliding keys. It reports whether the pop found an event.
func pushPopFixture() func() bool {
	q := NewEventQueue()
	for i := 0; i < 1024; i++ {
		q.Push(Event{Time: dram.Time(i % 64), Kind: KindWindow, Rank: int32(i % 4)})
	}
	i := 0
	return func() bool {
		q.Push(Event{Time: dram.Time(i % 64), Kind: KindWindow, Rank: int32(i % 4)})
		i++
		_, ok := q.Pop()
		return ok
	}
}

// BenchmarkEventQueuePushPop measures the queue's steady-state cost, one
// push and one pop at depth 1024 per op.
func BenchmarkEventQueuePushPop(b *testing.B) {
	op := pushPopFixture()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !op() {
			b.Fatal("empty queue")
		}
	}
}

// TestSteadyStateAllocFree pins push/pop at depth 1024 allocation-free.
func TestSteadyStateAllocFree(t *testing.T) {
	op := pushPopFixture()
	op()
	if n := testing.AllocsPerRun(1000, func() { op() }); n != 0 {
		t.Errorf("EventQueue push+pop allocated %.1f times per op", n)
	}
}
