package obs

import (
	"testing"

	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

func TestParseRuleRoundTrip(t *testing.T) {
	cases := []string{
		"violations:dram.decay_events>0",
		"skiprate:refresh.steps_skipped/refresh.steps_considered<0.2",
		"runlen99:refresh.discharged_run_len~0.99>4096",
		"ratio99:a.b/c.d~0.5>1.5",
	}
	for _, s := range cases {
		r, err := ParseRule(s)
		if err != nil {
			t.Errorf("ParseRule(%q): %v", s, err)
			continue
		}
		if got := r.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseRuleFields(t *testing.T) {
	r, err := ParseRule("skiprate:refresh.steps_skipped/refresh.steps_considered<0.2")
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != "skiprate" || r.Metric != "refresh.steps_skipped" ||
		r.Denom != "refresh.steps_considered" || r.Above || r.Threshold != 0.2 || r.Quantile != 0 {
		t.Fatalf("parsed %+v", r)
	}
	r, err = ParseRule("p99:lat~0.99>64")
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric != "lat" || r.Quantile != 0.99 || !r.Above || r.Threshold != 64 {
		t.Fatalf("parsed %+v", r)
	}
}

func TestParseRuleErrors(t *testing.T) {
	for _, s := range []string{
		"",                  // empty
		"noname>3",          // missing name separator
		"x:metric",          // missing comparator
		"x:metric>not-a-nr", // bad threshold
		"x:~0.5>1",          // empty metric
		"x:m~1.5>1",         // quantile out of range
		"x:m~zero>1",        // non-numeric quantile
		"x:m~NaN>1",         // NaN quantile
		"x:m>NaN",           // NaN threshold: could never fire
		"x:m>Inf",           // nothing exceeds +Inf: could never fire
		"x:m>+Inf",          // the same, signed
		"x:m<-Inf",          // nothing falls below -Inf: could never fire
		":m>1",              // empty name
	} {
		if _, err := ParseRule(s); err == nil {
			t.Errorf("ParseRule(%q) succeeded, want error", s)
		}
	}
}

// FuzzParseRule feeds arbitrary text to the rule parser: no input may
// panic, and every accepted rule must re-parse from its String form to an
// equal Rule.
func FuzzParseRule(f *testing.F) {
	for _, s := range []string{
		"violations:dram.decay_events>0",
		"skiprate:refresh.steps_skipped/refresh.steps_considered<0.2",
		"runlen99:refresh.discharged_run_len~0.99>4096",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r, err := ParseRule(s)
		if err != nil {
			return
		}
		back, err := ParseRule(r.String())
		if err != nil {
			t.Fatalf("ParseRule(%q) = %+v, but its String %q fails: %v", s, r, r.String(), err)
		}
		if back != r {
			t.Fatalf("ParseRule(%q) = %+v, re-parsed from %q as %+v", s, r, r.String(), back)
		}
	})
}

// captureSink records alert events for assertions (test-only sink).
type captureSink struct{ events []trace.Event }

func (s *captureSink) Emit(e trace.Event) { s.events = append(s.events, e) }

// watchdogFixture is a registry with two rank shards mirroring the real
// per-system layout.
func watchdogFixture() (*metrics.Registry, []*metrics.Counter, []*metrics.Counter) {
	root := metrics.NewRegistry()
	var skipped, considered []*metrics.Counter
	for _, name := range []string{"rank0", "rank1"} {
		rank := metrics.NewRegistry()
		skipped = append(skipped, rank.Counter("refresh.steps_skipped"))
		considered = append(considered, rank.Counter("refresh.steps_considered"))
		root.Attach(name, rank)
	}
	return root, skipped, considered
}

// TestWatchdogEdgeTriggered pins the firing semantics: one alert per
// condition onset, re-armed only after a tick in which the condition
// held false.
func TestWatchdogEdgeTriggered(t *testing.T) {
	root, skipped, considered := watchdogFixture()
	rule, err := ParseRule("skiprate:refresh.steps_skipped/refresh.steps_considered>0.5")
	if err != nil {
		t.Fatal(err)
	}
	sink := &captureSink{}
	wd := NewWatchdog(root, []Rule{rule}, 1, sink)

	step := func(skip, total int64) {
		for i := range skipped {
			skipped[i].Add(skip)
			considered[i].Add(total)
		}
	}

	step(8, 10) // delta ratio 0.8 > 0.5: fires
	wd.Tick(1, 100)
	step(8, 10) // still hot: no re-fire (edge-triggered)
	wd.Tick(2, 200)
	step(1, 10) // cools to 0.1
	wd.Tick(3, 300)
	step(9, 10) // hot again: second alert
	wd.Tick(4, 400)

	if got := wd.Fired()[0]; got != 2 {
		t.Errorf("fired = %d, want 2 (edge-triggered)", got)
	}
	alerts := wd.Alerts()
	if len(alerts) != 2 {
		t.Fatalf("retained %d alerts, want 2", len(alerts))
	}
	if alerts[0].Window != 1 || alerts[1].Window != 4 {
		t.Errorf("alert windows = %d,%d, want 1,4", alerts[0].Window, alerts[1].Window)
	}
	if alerts[0].Rule != "skiprate" || alerts[0].Value != 0.8 {
		t.Errorf("first alert = %+v, want skiprate at 0.8", alerts[0])
	}
	if len(sink.events) != 2 {
		t.Fatalf("sink saw %d events, want 2", len(sink.events))
	}
	e := sink.events[0]
	if e.Kind != trace.KindAlert || e.A != 0 || e.B != 800 || e.Time != 100 {
		t.Errorf("alert event = %+v, want KindAlert rule 0 value 800 milli at t=100", e)
	}
}

// TestWatchdogCadence checks `every` gating: a watchdog at cadence 2
// evaluates only when the window count has advanced by >= 2.
func TestWatchdogCadence(t *testing.T) {
	root, skipped, considered := watchdogFixture()
	rule, _ := ParseRule("any:refresh.steps_skipped>0")
	wd := NewWatchdog(root, []Rule{rule}, 2, nil)

	skipped[0].Add(1)
	considered[0].Add(1)
	wd.Tick(1, 10) // window 1 < 0+2: skipped
	if wd.Ticks() != 0 {
		t.Fatalf("ticks = %d after gated window, want 0", wd.Ticks())
	}
	wd.Tick(2, 20) // evaluates, sees the delta, fires
	if wd.Ticks() != 1 || wd.Fired()[0] != 1 {
		t.Fatalf("ticks = %d fired = %d, want 1,1", wd.Ticks(), wd.Fired()[0])
	}
}

// TestWatchdogShardAggregation checks leaf-name matching sums the
// numerator across rank shards before comparing.
func TestWatchdogShardAggregation(t *testing.T) {
	root, skipped, _ := watchdogFixture()
	rule, _ := ParseRule("total:refresh.steps_skipped>5")
	wd := NewWatchdog(root, []Rule{rule}, 1, nil)

	// 3 per shard = 6 total: over the threshold only in aggregate.
	skipped[0].Add(3)
	skipped[1].Add(3)
	wd.Tick(1, 10)
	if wd.Fired()[0] != 1 {
		t.Fatalf("fired = %d, want 1 (3+3 > 5 across shards)", wd.Fired()[0])
	}
}

// TestWatchdogQuantileRule checks ~q evaluates the histogram quantile of
// the delta.
func TestWatchdogQuantileRule(t *testing.T) {
	root := metrics.NewRegistry()
	child := metrics.NewRegistry()
	h := child.Histogram("run.len")
	root.Attach("rank0", child)
	rule, _ := ParseRule("p99:run.len~0.99>100")
	wd := NewWatchdog(root, []Rule{rule}, 1, nil)

	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	wd.Tick(1, 10) // p99 of ones: far below 100
	if wd.Fired()[0] != 0 {
		t.Fatalf("fired on low quantile")
	}
	for i := 0; i < 100; i++ {
		h.Observe(1 << 10)
	}
	wd.Tick(2, 20) // delta is all 1024s: p99 ~ 1024 > 100
	if wd.Fired()[0] != 1 {
		t.Fatalf("did not fire on high quantile delta")
	}
}

// TestWatchdogDenominatorZero checks a ratio rule does not evaluate (and
// so cannot fire) while the denominator delta is zero.
func TestWatchdogDenominatorZero(t *testing.T) {
	root, skipped, _ := watchdogFixture()
	rule, _ := ParseRule("rate:refresh.steps_skipped/refresh.steps_considered>0")
	wd := NewWatchdog(root, []Rule{rule}, 1, nil)
	skipped[0].Add(5) // numerator moves, denominator does not
	wd.Tick(1, 10)
	if wd.Fired()[0] != 0 {
		t.Fatal("ratio rule fired with a zero denominator delta")
	}
}

// TestWatchdogMissingMetric checks a rule over an unregistered metric
// never evaluates.
func TestWatchdogMissingMetric(t *testing.T) {
	root, skipped, _ := watchdogFixture()
	rule, _ := ParseRule("ghost:no.such_metric>0")
	wd := NewWatchdog(root, []Rule{rule}, 1, nil)
	skipped[0].Add(1)
	wd.Tick(1, 10)
	if wd.Fired()[0] != 0 || wd.Firing()[0] {
		t.Fatal("rule over a missing metric evaluated")
	}
}
