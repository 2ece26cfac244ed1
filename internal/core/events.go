package core

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/refresh"
)

// Event-driven execution.
//
// The dense loop (RunWindow) advances one retention window per call
// whether anything happened in it or not. The event loop below drives the
// same system from an engine.EventQueue instead: retention windows,
// write bursts and retention probes are events in one deterministic
// (time, kind, rank, seq) order, and runs of windows in which nothing
// touched the memory are fast-forwarded through the refresh engines' bulk
// idle replay instead of being stepped one by one. The two drivers are
// observationally identical — same cell state, same counter totals, same
// per-shard trace streams — which the differential tests in
// events_test.go pin against RunWindow across geometries and refresh
// configurations.
//
// Windows are atomic: an event whose time falls strictly inside a window
// already run is delivered when the clock reaches it — its Fn receives
// the delivery time, never a time before the clock — exactly as a memory
// controller holds a request while the rank is busy.

// EventStats reports what the event loop has done so far.
type EventStats struct {
	// Popped counts events executed.
	Popped int64
	// Windows counts retention windows run by the event loop, real and
	// replayed.
	Windows int64
	// Replayed counts the windows that were fast-forwarded through bulk
	// idle replay rather than stepped densely.
	Replayed int64
}

// eventState is the per-system event-loop state.
type eventState struct {
	q *engine.EventQueue
	// limit is the active RunUntil horizon bounding bulk replay, and
	// accum receives every window's CycleStats during that call. Events
	// only run inside RunUntil, so both are always set when they do.
	limit dram.Time
	accum *refresh.CycleStats
	stats EventStats
}

// ensureEvents arms the event loop on first use: from then on there is
// always exactly one pending KindWindow event, at the end of the last
// window run (initially the current clock).
func (s *System) ensureEvents() {
	if s.ev.q != nil {
		return
	}
	s.ev.q = engine.NewEventQueue()
	s.ev.q.Schedule(s.Clock, engine.KindWindow, -1, s.windowEvent)
}

// Schedule arms fn to run at simulation time t with the given ordering
// key.
func (s *System) Schedule(t dram.Time, kind engine.EventKind, rank int32, fn func(now dram.Time)) {
	s.ensureEvents()
	s.ev.q.Schedule(t, kind, rank, fn)
}

// ScheduleWriteBurst arms fn — application stores through the datapath —
// at simulation time t. Bursts order before the retention window starting
// at the same instant, exactly as the dense experiment loop applies a
// window's writes before running it.
func (s *System) ScheduleWriteBurst(t dram.Time, fn func(now dram.Time)) {
	s.Schedule(t, engine.KindWriteBurst, -1, fn)
}

// ScheduleRetentionChecks arms a self-re-arming read-only integrity probe:
// starting at start and every interval after, it scans all ranks for rows
// that lost data or hold charge past the deadline, and reports the count.
// Probes order before anything that mutates state at their instant.
func (s *System) ScheduleRetentionChecks(start, interval dram.Time, report func(now dram.Time, violations int)) {
	var probe func(now dram.Time)
	probe = func(now dram.Time) {
		v := 0
		for i := range s.Ranks {
			v += s.Ranks[i].DRAM.CheckIntegrity(now)
		}
		if report != nil {
			report(now, v)
		}
		s.ev.q.Schedule(now+interval, engine.KindRetentionCheck, -1, probe)
	}
	s.Schedule(start, engine.KindRetentionCheck, -1, probe)
}

// EventStats returns what the event loop has done so far.
func (s *System) EventStats() EventStats { return s.ev.stats }

// RunUntil pops and executes events with time strictly before horizon and
// returns the accumulated statistics of the retention windows run. The
// last window starting before the horizon runs to completion, so the
// clock lands on a window boundary at or past horizon — the same boundary
// N dense RunWindow calls reach when horizon = start + N·TRET.
func (s *System) RunUntil(horizon dram.Time) refresh.CycleStats {
	s.ensureEvents()
	var acc refresh.CycleStats
	prevLimit, prevAccum := s.ev.limit, s.ev.accum
	s.ev.limit, s.ev.accum = horizon, &acc
	for {
		e, ok := s.ev.q.Peek()
		if !ok || e.Time >= horizon {
			break
		}
		s.popEvent()
	}
	s.ev.limit, s.ev.accum = prevLimit, prevAccum
	return acc
}

// popEvent executes the earliest pending event, advancing the clock to
// its time when it lies ahead and delivering it at the current clock when
// the atomic window that covered it has already run.
func (s *System) popEvent() {
	e, _ := s.ev.q.Pop()
	if e.Time > s.Clock {
		s.Clock = e.Time
	}
	s.ev.stats.Popped++
	if p := s.Config.Progress; p != nil {
		p.noteEvent(s.Clock)
	}
	e.Fn(s.Clock)
}

// windowEvent runs retention windows starting at the current clock: one
// dense window when the immediate future holds work, a bulk idle replay
// across every window up to the next event (or the run horizon) when it
// does not. It then re-arms itself at the new clock, so one window event
// is always pending.
func (s *System) windowEvent(now dram.Time) {
	if k := s.idleWindows(); k > 1 {
		var total refresh.CycleStats
		total.Start = s.Clock
		for i := range s.Ranks {
			total.Add(s.Ranks[i].Engine.ReplayIdleCycles(s.Clock, k))
		}
		s.Clock = total.End
		s.windows.Add(k)
		s.ev.stats.Windows += k
		s.ev.stats.Replayed += k
		if p := s.Config.Progress; p != nil {
			p.noteWindows(k, k, s.Clock)
		}
		if s.watch != nil {
			// One evaluation point covers the whole replayed span: the
			// windows inside it are idle by construction, so the metric
			// deltas a per-window cadence would see land in this one call.
			s.watch(s.windows.Load(), s.Clock)
		}
		s.ev.accum.Add(total)
	} else {
		st := s.RunWindow()
		s.ev.stats.Windows++
		s.ev.accum.Add(st)
	}
	s.ev.q.Schedule(s.Clock, engine.KindWindow, -1, s.windowEvent)
}

// idleWindows returns how many consecutive windows starting at the
// current clock may run as one bulk idle replay: the span to the next
// scheduled event or the run horizon, provided every rank can replay
// (idle access bits, no active tracer, rank-synchronous status) and
// per-window epoch capture is off. At least 1 — the window due now always
// runs.
func (s *System) idleWindows() int64 {
	if s.Config.Timeline {
		return 1
	}
	deadline := s.ev.limit
	if next, ok := s.ev.q.Peek(); ok && next.Time < deadline {
		deadline = next.Time
	}
	if deadline <= s.Clock {
		return 1
	}
	tret := s.DRAM.Config().Timing.TRET
	k := int64((deadline - s.Clock) / tret)
	if k <= 1 {
		return 1
	}
	for i := range s.Ranks {
		if !s.Ranks[i].Engine.CanReplayIdle() {
			return 1
		}
	}
	return k
}
