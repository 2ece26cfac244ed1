package engine

import (
	"fmt"

	"zerorefresh/internal/dram"
)

// Event-driven simulation core.
//
// The dense window loop (core.System.RunWindow) charges every retention
// window the same cost whether anything happened in it or not. The event
// queue below is the seam the event-driven core is built on: every future
// action — the next auto-refresh deadline, a scheduled write burst, a
// retention-expiry probe — is an Event in one priority queue, and the
// simulation advances by popping events in order and jumping the clock
// across the gaps in O(log n).
//
// Determinism contract: the pop order is the total order
// (Time, Kind, Rank, Seq) and nothing else. Seq is assigned by Push in
// insertion order, so two runs that schedule the same events in the same
// program order replay identically. No wall-clock time and no
// map-iteration-order scheduling may feed the queue; the zrlint
// determinism analyzer machine-checks both for this package and its users.

// EventKind classifies an event and breaks ties among events sharing a
// timestamp: lower kinds run first. The order is load-bearing — write
// bursts must land before the retention window that starts at the same
// instant, exactly as the dense loop applies a window's writes before
// running it; read-only retention probes run before anything mutates
// state at their instant.
type EventKind uint8

const (
	// KindRetentionCheck is a read-only retention-expiry probe.
	KindRetentionCheck EventKind = iota + 1
	// KindWriteBurst delivers application stores through the datapath.
	KindWriteBurst
	// KindWindow starts one retention window of refresh activity (the
	// refresh engine's next auto-refresh deadline).
	KindWindow
	// KindUser is free for callers composing their own schedules.
	KindUser
)

// String returns the kind's name for diagnostics.
func (k EventKind) String() string {
	switch k {
	case KindRetentionCheck:
		return "retention-check"
	case KindWriteBurst:
		return "write-burst"
	case KindWindow:
		return "window"
	case KindUser:
		return "user"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one scheduled simulation action.
type Event struct {
	// Time is the simulation instant the event fires at.
	Time dram.Time
	// Kind breaks ties among events sharing Time (lower first).
	Kind EventKind
	// Rank orders events of the same kind and instant across rank shards
	// (lower first); use -1 for system-wide events.
	Rank int32
	// Seq is the queue-assigned tie-breaker of last resort: among events
	// with equal (Time, Kind, Rank), insertion order wins. Push assigns
	// it; any value set by the caller is overwritten.
	Seq uint64
	// Fn runs when the event is popped by an event loop. It receives the
	// event's scheduled time. Fn is not part of the ordering key.
	Fn func(now dram.Time)
}

// eventLess is the total order of the queue: (Time, Kind, Rank, Seq).
func eventLess(a, b Event) bool {
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Seq < b.Seq
}

// EventQueue is a binary-heap priority queue over Events with the
// deterministic total order (Time, Kind, Rank, Seq). The zero value is
// ready to use. It is single-goroutine, like every other piece of one
// shard's simulation state.
type EventQueue struct {
	heap []Event
	seq  uint64
}

// NewEventQueue returns an empty queue.
func NewEventQueue() *EventQueue { return &EventQueue{} }

// Len returns the number of pending events.
func (q *EventQueue) Len() int { return len(q.heap) }

// Push schedules an event, assigning its Seq tie-breaker.
//
//zr:hotpath
func (q *EventQueue) Push(e Event) {
	e.Seq = q.seq
	q.seq++
	q.heap = append(q.heap, e)
	q.up(len(q.heap) - 1)
}

// Schedule is the convenience form of Push.
//
//zr:hotpath
func (q *EventQueue) Schedule(t dram.Time, kind EventKind, rank int32, fn func(now dram.Time)) {
	q.Push(Event{Time: t, Kind: kind, Rank: rank, Fn: fn})
}

// Peek returns the earliest pending event without removing it.
//
//zr:hotpath
func (q *EventQueue) Peek() (Event, bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	return q.heap[0], true
}

// Pop removes and returns the earliest pending event.
//
//zr:hotpath
func (q *EventQueue) Pop() (Event, bool) {
	if len(q.heap) == 0 {
		return Event{}, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap[last] = Event{} // release Fn
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

func (q *EventQueue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q.heap[i], q.heap[parent]) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *EventQueue) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < n && eventLess(q.heap[l], q.heap[least]) {
			least = l
		}
		if r < n && eventLess(q.heap[r], q.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		q.heap[i], q.heap[least] = q.heap[least], q.heap[i]
		i = least
	}
}
