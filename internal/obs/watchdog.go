package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

// Rule is one watchdog threshold rule, evaluated over the metrics delta
// of each cadence interval. The text form accepted by ParseRule is
//
//	name:metric[/denom][~q](>|<)threshold
//
// where metric and denom are metric leaf names (as registered, e.g.
// "refresh.steps_skipped" — samples are matched by leaf name and summed
// across rank shards), ~q selects a histogram quantile in (0,1] instead
// of the count, and the comparator direction picks which side of the
// threshold fires. Examples:
//
//	violations:dram.decay_events>0
//	skiprate:refresh.steps_skipped/refresh.steps_considered<0.2
//	runlen99:refresh.discharged_run_len~0.99>4096
type Rule struct {
	// Name identifies the rule in alerts and trace events.
	Name string
	// Metric is the numerator metric leaf name.
	Metric string
	// Denom, when non-empty, is the denominator metric leaf name; the
	// rule value is Metric/Denom and the rule does not evaluate while the
	// denominator delta is zero.
	Denom string
	// Quantile, when > 0, evaluates the q-quantile of the (histogram)
	// numerator's delta instead of its count.
	Quantile float64
	// Above selects the firing side: value > Threshold when true,
	// value < Threshold when false.
	Above bool
	// Threshold is the firing threshold.
	Threshold float64
}

// ParseRule parses the text form documented on Rule.
func ParseRule(s string) (Rule, error) {
	var r Rule
	name, rest, ok := strings.Cut(s, ":")
	if !ok || name == "" {
		return r, fmt.Errorf("obs: rule %q: want name:metric[/denom][~q](>|<)threshold", s)
	}
	r.Name = name
	op := strings.IndexAny(rest, "<>")
	if op < 0 {
		return r, fmt.Errorf("obs: rule %q: missing comparator (> or <)", s)
	}
	r.Above = rest[op] == '>'
	thr, err := strconv.ParseFloat(rest[op+1:], 64)
	if err != nil {
		return r, fmt.Errorf("obs: rule %q: bad threshold: %v", s, err)
	}
	if math.IsNaN(thr) || math.IsInf(thr, 0) {
		// No value compares true against NaN, none exceeds +Inf and none
		// falls below -Inf, and every finite value is on the firing side
		// of the other infinity: the rule could never fire, or always
		// would.
		return r, fmt.Errorf("obs: rule %q: threshold %v is not finite", s, thr)
	}
	r.Threshold = thr
	expr := rest[:op]
	if expr, q, ok := cutLast(expr, '~'); ok {
		qv, err := strconv.ParseFloat(q, 64)
		if err != nil || !(qv > 0 && qv <= 1) { // NaN fails both comparisons
			return r, fmt.Errorf("obs: rule %q: bad quantile %q (want (0,1])", s, q)
		}
		r.Quantile = qv
		r.Metric, r.Denom = splitDenom(expr)
	} else {
		r.Metric, r.Denom = splitDenom(expr)
	}
	if r.Metric == "" {
		return r, fmt.Errorf("obs: rule %q: empty metric", s)
	}
	return r, nil
}

func cutLast(s string, sep byte) (before, after string, found bool) {
	if i := strings.LastIndexByte(s, sep); i >= 0 {
		return s[:i], s[i+1:], true
	}
	return s, "", false
}

func splitDenom(expr string) (metric, denom string) {
	if i := strings.IndexByte(expr, '/'); i >= 0 {
		return expr[:i], expr[i+1:]
	}
	return expr, ""
}

// String renders the rule back in its ParseRule text form.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Name)
	b.WriteByte(':')
	b.WriteString(r.Metric)
	if r.Denom != "" {
		b.WriteByte('/')
		b.WriteString(r.Denom)
	}
	if r.Quantile > 0 {
		b.WriteByte('~')
		b.WriteString(strconv.FormatFloat(r.Quantile, 'g', -1, 64))
	}
	if r.Above {
		b.WriteByte('>')
	} else {
		b.WriteByte('<')
	}
	b.WriteString(strconv.FormatFloat(r.Threshold, 'g', -1, 64))
	return b.String()
}

// Alert is one watchdog firing: a rule crossing into its firing state at
// a window boundary.
type Alert struct {
	// Rule is the firing rule's name.
	Rule string
	// Window is the cumulative window count at the firing boundary.
	Window int64
	// Time is the simulation clock at the firing boundary.
	Time dram.Time
	// Value is the observed rule value, Threshold the configured limit.
	Value, Threshold float64
}

// maxAlerts bounds the retained alert list; older alerts drop first.
const maxAlerts = 1024

// Watchdog evaluates threshold rules over per-cadence metric deltas on
// the simulation's own window clock: install Tick via core.System.SetWatch
// and it runs after every retention window (one evaluation covers a whole
// bulk-replayed idle span), so evaluation points are deterministic in
// sim time — two same-seed runs fire identical alerts at identical
// windows, regardless of wall-clock speed.
//
// Firing is edge-triggered: a rule alerts when its condition becomes true
// and re-alerts only after a tick in which the condition was false (or
// did not evaluate). Each alert appends to a bounded list served by
// /alerts and emits one trace.KindAlert event into the plane's sink, so
// alerts land on the same timeline as the activity that caused them.
type Watchdog struct {
	reg   *metrics.Registry
	rules []Rule
	every int64
	sink  engine.Tracer

	mu       sync.Mutex
	prev     metrics.Snapshot
	lastEval int64
	firing   []bool
	fired    []int64
	ticks    int64
	alerts   []Alert
}

// NewWatchdog returns a watchdog over the registry evaluating rules every
// `every` windows (1 if every <= 0). sink, when non-nil, receives one
// trace.KindAlert event per alert (A = rule index, B = value in
// milli-units).
func NewWatchdog(reg *metrics.Registry, rules []Rule, every int64, sink engine.Tracer) *Watchdog {
	if every <= 0 {
		every = 1
	}
	return &Watchdog{
		reg:    reg,
		rules:  append([]Rule(nil), rules...),
		every:  every,
		sink:   sink,
		prev:   reg.Snapshot(),
		firing: make([]bool, len(rules)),
		fired:  make([]int64, len(rules)),
	}
}

// Rules returns the configured rules in evaluation order.
func (w *Watchdog) Rules() []Rule { return append([]Rule(nil), w.rules...) }

// Ticks returns how many evaluations have run.
func (w *Watchdog) Ticks() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ticks
}

// Fired returns the per-rule total alert counts, index-aligned with
// Rules.
func (w *Watchdog) Fired() []int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]int64(nil), w.fired...)
}

// Firing returns the per-rule current firing state, index-aligned with
// Rules.
func (w *Watchdog) Firing() []bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]bool(nil), w.firing...)
}

// Alerts returns the retained alerts, oldest first.
func (w *Watchdog) Alerts() []Alert {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]Alert(nil), w.alerts...)
}

// Tick is the core.System.SetWatch hook: called after every window (and
// once per bulk-replayed span) with the cumulative window count and the
// clock. It evaluates at the configured cadence.
func (w *Watchdog) Tick(window int64, now dram.Time) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if window < w.lastEval+w.every {
		return
	}
	w.lastEval = window
	w.ticks++
	cur := w.reg.Snapshot()
	delta := cur.Delta(w.prev)
	w.prev = cur
	for i := range w.rules {
		r := &w.rules[i]
		v, ok := ruleValue(delta, *r)
		hot := ok && ((r.Above && v > r.Threshold) || (!r.Above && v < r.Threshold))
		if hot && !w.firing[i] {
			w.fired[i]++
			if len(w.alerts) == maxAlerts {
				copy(w.alerts, w.alerts[1:])
				w.alerts = w.alerts[:maxAlerts-1]
			}
			w.alerts = append(w.alerts, Alert{Rule: r.Name, Window: window, Time: now, Value: v, Threshold: r.Threshold})
			if w.sink != nil {
				w.sink.Emit(trace.Event{
					Kind: trace.KindAlert, Time: int64(now),
					Chip: -1, Bank: -1, Row: -1,
					A: int64(i), B: int64(math.Round(v * 1000)),
				})
			}
		}
		w.firing[i] = hot
	}
}

// ruleValue evaluates the rule over a delta snapshot. ok is false when
// the numerator metric is absent, a quantile is requested of an empty or
// non-histogram sample, or the denominator is absent or zero.
func ruleValue(delta metrics.Snapshot, r Rule) (v float64, ok bool) {
	num, nok := metricValue(delta, r.Metric, r.Quantile)
	if !nok {
		return 0, false
	}
	if r.Denom == "" {
		return num, true
	}
	den, dok := metricValue(delta, r.Denom, 0)
	if !dok || den == 0 {
		return 0, false
	}
	return num / den, true
}

// metricValue sums every sample whose leaf name matches across shards
// (counters and histograms add, gauges last-write-win, matching the
// metrics.Merge fold) and returns the aggregate value — the histogram
// q-quantile when q > 0, Sample.Value otherwise.
func metricValue(snap metrics.Snapshot, leaf string, q float64) (v float64, ok bool) {
	var agg metrics.Sample
	found := false
	for _, smp := range snap.Samples {
		_, m := splitSample(smp.Name)
		if m != leaf {
			continue
		}
		if !found {
			agg = smp
			agg.Buckets = append([]int64(nil), smp.Buckets...)
			found = true
			continue
		}
		switch smp.Kind {
		case metrics.KindCounter:
			agg.Int += smp.Int
		case metrics.KindHistogram:
			agg.Int += smp.Int
			agg.Sum += smp.Sum
			agg.Buckets = sumBuckets(agg.Buckets, smp.Buckets)
		default:
			agg.Float = smp.Float
		}
	}
	if !found {
		return 0, false
	}
	if q > 0 {
		if agg.Kind != metrics.KindHistogram || agg.Int == 0 {
			return 0, false
		}
		return agg.Quantile(q), true
	}
	return agg.Value(), true
}

// sumBuckets returns a + b element-wise in a fresh slice.
func sumBuckets(a, b []int64) []int64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]int64, n)
	copy(out, a)
	for i := range b {
		out[i] += b[i]
	}
	return out
}
