package attr

import (
	"fmt"
	"sort"
	"strings"

	"zerorefresh/internal/trace"
)

// Span derivation: fold the flat (time, shard, seq) event stream back
// into the hierarchy the simulator actually executed — run → retention
// window → burst — so a timeline report reads like the schedule, not
// like a log. Window boundaries come from refresh.window_rollover events
// (one per rank per window, stamped with the window's end time);
// within a window, consecutive same-family events on a shard merge into
// one burst.

// Burst families.
const (
	FamilyRefresh = "refresh"     // refresh.issued / refresh.skipped steps
	FamilyWrite   = "write"       // ctrl.writeback / dram.charge_transition
	FamilyCodec   = "codec"       // transform.codec_select
	FamilyAnomaly = "anomaly"     // dram.retention_violation / obs.alert
	FamilyIdle    = "idle-replay" // synthesized: rollover counted steps with no per-step events
)

// family maps an event kind to its burst family; window rollovers are
// structural, not burst members.
func family(k trace.Kind) string {
	switch k {
	case trace.KindRefreshIssued, trace.KindRefreshSkipped:
		return FamilyRefresh
	case trace.KindWriteback, trace.KindChargeTransition:
		return FamilyWrite
	case trace.KindCodecSelect:
		return FamilyCodec
	case trace.KindRetentionViolation, trace.KindAlert:
		return FamilyAnomaly
	}
	return ""
}

// Burst is a maximal run of consecutive same-family events on one shard
// within one window.
type Burst struct {
	Shard   int32
	Family  string
	StartNs int64
	EndNs   int64
	// Count is the number of events merged into the burst (or the
	// rollover-counted steps for a synthesized idle-replay burst).
	Count int64
	// Issued/Skipped split refresh-family (and idle-replay) steps.
	Issued, Skipped int64
	// Writebacks/Transitions split write-family events.
	Writebacks, Transitions int64
	// Violations/Alerts split anomaly-family events.
	Violations, Alerts int64
	// ZeroWords accumulates codec-family zero-word counts (Event.B).
	ZeroWords int64
	// FirstSeq is the shard-local sequence number of the first merged
	// event (ties broken on it for deterministic ordering).
	FirstSeq uint64
	// Synth marks a burst synthesized from rollover counters rather
	// than per-step events: the refresh work ran as an idle-window bulk
	// replay (which emits no per-step events), or the per-step events
	// were dropped by the ring — the timeline report flags which is
	// plausible via the stream's drop count.
	Synth bool
}

// Rollover is one rank's window-end bookkeeping event.
type Rollover struct {
	Shard     int32
	Refreshed int64
	Skipped   int64
}

// Window is one derived retention-window interval.
type Window struct {
	Index   int
	StartNs int64
	EndNs   int64
	// Partial marks the trailing interval after the last rollover (a
	// run cut off mid-window).
	Partial   bool
	Rollovers []Rollover
	Bursts    []Burst
	Events    int64
}

// Timeline is the derived hierarchy for one trace stream.
type Timeline struct {
	Windows []Window
	StartNs int64
	EndNs   int64
	Events  int64
	Dropped uint64
	labels  map[int32]string
}

// Label names a shard in the timeline's source stream.
func (t *Timeline) Label(shard int32) string {
	if l, ok := t.labels[shard]; ok && l != "" {
		return l
	}
	return fmt.Sprintf("shard%d", shard)
}

// Derive folds a stream into its window/burst hierarchy. Events must be
// in the exporter's merged (time, shard, seq) order — every simulator
// export is.
func Derive(s *Stream) *Timeline {
	t := &Timeline{Dropped: s.Dropped, labels: s.Labels, Events: int64(len(s.Events))}
	if len(s.Events) == 0 {
		return t
	}
	t.StartNs = s.Events[0].Time
	t.EndNs = s.Events[len(s.Events)-1].Time

	// Window boundaries: distinct rollover end times, ascending.
	seen := make(map[int64]bool)
	var bounds []int64
	for _, e := range s.Events {
		if e.Kind == trace.KindWindowRollover && !seen[e.Time] {
			seen[e.Time] = true
			bounds = append(bounds, e.Time)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })

	// Partition events into windows. Window i owns [start_i, bounds[i]);
	// its rollover events carry Time == bounds[i] and belong to it, while
	// any other event stamped exactly at the boundary opens the next
	// window. Events past the last boundary form a trailing partial
	// window. Assignment is per event (not a cursor sweep) because merged
	// order interleaves shards: a next-window event on a low shard can
	// precede this window's rollover on a high shard at the same time.
	nw := len(bounds)
	windows := make([]Window, nw, nw+1)
	start := t.StartNs
	for i, end := range bounds {
		windows[i] = Window{Index: i, StartNs: start, EndNs: end}
		start = end
	}
	trailing := Window{Index: nw, StartNs: start, EndNs: t.EndNs, Partial: true}
	hasTrailing := false
	bodies := make([][]trace.Event, nw+1)
	for _, e := range s.Events {
		if e.Kind == trace.KindWindowRollover {
			i := sort.Search(nw, func(i int) bool { return bounds[i] >= e.Time })
			if i < nw && bounds[i] == e.Time {
				windows[i].Rollovers = append(windows[i].Rollovers, Rollover{Shard: e.Shard, Refreshed: e.A, Skipped: e.B})
				windows[i].Events++
			} else {
				trailing.Rollovers = append(trailing.Rollovers, Rollover{Shard: e.Shard, Refreshed: e.A, Skipped: e.B})
				trailing.Events++
				hasTrailing = true
			}
			continue
		}
		i := sort.Search(nw, func(i int) bool { return bounds[i] > e.Time })
		if i < nw {
			bodies[i] = append(bodies[i], e)
			windows[i].Events++
		} else {
			bodies[nw] = append(bodies[nw], e)
			trailing.Events++
			hasTrailing = true
		}
	}
	if hasTrailing {
		windows = append(windows, trailing)
	}
	for i := range windows {
		w := &windows[i]
		sort.Slice(w.Rollovers, func(a, b int) bool { return w.Rollovers[a].Shard < w.Rollovers[b].Shard })
		w.Bursts = deriveBursts(bodies[i])
		synthesizeIdle(w)
	}
	t.Windows = windows
	return t
}

// deriveBursts merges a window's body events (merged stream order) into
// per-shard family bursts, then orders them (start, shard, first seq).
func deriveBursts(body []trace.Event) []Burst {
	open := make(map[int32]*Burst)
	var bursts []*Burst
	for _, e := range body {
		fam := family(e.Kind)
		if fam == "" {
			continue
		}
		b := open[e.Shard]
		if b == nil || b.Family != fam {
			b = &Burst{Shard: e.Shard, Family: fam, StartNs: e.Time, FirstSeq: e.Seq}
			open[e.Shard] = b
			bursts = append(bursts, b)
		}
		b.EndNs = e.Time
		b.Count++
		switch e.Kind {
		case trace.KindRefreshIssued:
			b.Issued++
		case trace.KindRefreshSkipped:
			b.Skipped++
		case trace.KindWriteback:
			b.Writebacks++
		case trace.KindChargeTransition:
			b.Transitions++
		case trace.KindRetentionViolation:
			b.Violations++
		case trace.KindAlert:
			b.Alerts++
		case trace.KindCodecSelect:
			b.ZeroWords += e.B
		}
	}
	out := make([]Burst, len(bursts))
	for i, b := range bursts {
		out[i] = *b
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StartNs != out[j].StartNs {
			return out[i].StartNs < out[j].StartNs
		}
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].FirstSeq < out[j].FirstSeq
	})
	return out
}

// synthesizeIdle adds an idle-replay burst for every rank whose rollover
// counted refresh steps but whose window holds no per-step refresh
// events: the idle-window bulk replay performs the work without emitting
// per-step events, so the span exists even though no events do.
func synthesizeIdle(w *Window) {
	stepped := make(map[int32]bool)
	for _, b := range w.Bursts {
		if b.Family == FamilyRefresh {
			stepped[b.Shard] = true
		}
	}
	for _, r := range w.Rollovers {
		if stepped[r.Shard] || r.Refreshed+r.Skipped == 0 {
			continue
		}
		w.Bursts = append(w.Bursts, Burst{
			Shard: r.Shard, Family: FamilyIdle,
			StartNs: w.StartNs, EndNs: w.EndNs,
			Count: r.Refreshed + r.Skipped, Issued: r.Refreshed, Skipped: r.Skipped,
			Synth: true,
		})
	}
	sort.Slice(w.Bursts, func(i, j int) bool {
		if w.Bursts[i].StartNs != w.Bursts[j].StartNs {
			return w.Bursts[i].StartNs < w.Bursts[j].StartNs
		}
		if w.Bursts[i].Shard != w.Bursts[j].Shard {
			return w.Bursts[i].Shard < w.Bursts[j].Shard
		}
		return w.Bursts[i].FirstSeq < w.Bursts[j].FirstSeq
	})
}

// Report renders the timeline as a byte-deterministic text report.
func (t *Timeline) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %d windows, %d events, span [%dns, %dns]\n", len(t.Windows), t.Events, t.StartNs, t.EndNs)
	if t.Dropped > 0 {
		fmt.Fprintf(&b, "WARNING: %d events dropped by the trace ring; windows may be missing bursts\n", t.Dropped)
	}
	for _, w := range t.Windows {
		tag := ""
		if w.Partial {
			tag = " (partial)"
		}
		fmt.Fprintf(&b, "window %d [%dns, %dns)%s: %d events\n", w.Index, w.StartNs, w.EndNs, tag, w.Events)
		for _, r := range w.Rollovers {
			fmt.Fprintf(&b, "  rollover %-6s refreshed=%d skipped=%d\n", t.Label(r.Shard), r.Refreshed, r.Skipped)
		}
		for _, burst := range w.Bursts {
			fmt.Fprintf(&b, "  %-11s %-6s [%dns, %dns] %s\n",
				burst.Family, t.Label(burst.Shard), burst.StartNs, burst.EndNs, burstDetail(burst))
		}
	}
	return b.String()
}

func burstDetail(b Burst) string {
	switch b.Family {
	case FamilyRefresh:
		return fmt.Sprintf("steps=%d issued=%d skipped=%d", b.Count, b.Issued, b.Skipped)
	case FamilyIdle:
		return fmt.Sprintf("steps=%d issued=%d skipped=%d (bulk replay, no per-step events)", b.Count, b.Issued, b.Skipped)
	case FamilyWrite:
		return fmt.Sprintf("events=%d writebacks=%d transitions=%d", b.Count, b.Writebacks, b.Transitions)
	case FamilyCodec:
		return fmt.Sprintf("lines=%d zero_words=%d", b.Count, b.ZeroWords)
	case FamilyAnomaly:
		return fmt.Sprintf("events=%d violations=%d alerts=%d", b.Count, b.Violations, b.Alerts)
	}
	return fmt.Sprintf("events=%d", b.Count)
}

// WriteChromeSpans renders the derived bursts as Chrome trace-event
// complete spans ("ph":"X"): tid = shard for bursts, plus a pseudo
// thread one past the highest shard holding one span per window. Load
// the output in chrome://tracing or Perfetto next to the raw event dump
// to see the hierarchy over the instants.
func (t *Timeline) WriteChromeSpans(w *strings.Builder) {
	w.WriteString("{\"traceEvents\":[\n")
	shards := make(map[int32]bool)
	for _, win := range t.Windows {
		for _, b := range win.Bursts {
			shards[b.Shard] = true
		}
		for _, r := range win.Rollovers {
			shards[r.Shard] = true
		}
	}
	ids := make([]int32, 0, len(shards))
	for id := range shards {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	winTid := int32(0)
	for _, id := range ids {
		if id >= winTid {
			winTid = id + 1
		}
	}
	var lines []string
	for _, id := range ids {
		lines = append(lines, fmt.Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":%s}}", id, trace.JSONString(t.Label(id))))
	}
	lines = append(lines, fmt.Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"windows\"}}", winTid))
	span := func(name string, tid int32, start, end int64, args string) {
		dur := end - start
		lines = append(lines, fmt.Sprintf("{\"name\":%s,\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d.%03d,\"dur\":%d.%03d,\"args\":{%s}}",
			trace.JSONString(name), tid, start/1000, start%1000, dur/1000, dur%1000, args))
	}
	for _, win := range t.Windows {
		span(fmt.Sprintf("window %d", win.Index), winTid, win.StartNs, win.EndNs,
			fmt.Sprintf("\"events\":%d,\"partial\":%t", win.Events, win.Partial))
		for _, b := range win.Bursts {
			span(b.Family, b.Shard, b.StartNs, b.EndNs,
				fmt.Sprintf("\"count\":%d,\"issued\":%d,\"skipped\":%d,\"writebacks\":%d,\"transitions\":%d,\"zero_words\":%d,\"synth\":%t",
					b.Count, b.Issued, b.Skipped, b.Writebacks, b.Transitions, b.ZeroWords, b.Synth))
		}
	}
	w.WriteString(strings.Join(lines, ",\n"))
	fmt.Fprintf(w, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%d}}\n", t.Dropped)
}
