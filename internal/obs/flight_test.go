package obs

import (
	"bytes"
	"encoding/json"
	"testing"

	"zerorefresh/internal/core"
	"zerorefresh/internal/dram"
	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

func newTestPlane() *Plane {
	return NewPlane(metrics.NewRegistry(), &core.Progress{}, 64)
}

// TestFlightRecorderDisarmedNoAllocs pins the tee's core cost contract:
// the disarmed emit path — the one every simulation runs under
// `zrsim -serve` — allocates nothing.
func TestFlightRecorderDisarmedNoAllocs(t *testing.T) {
	plane := newTestPlane()
	plane.Recorder.SetAutoArm(false)
	sink := plane.TraceSink("rank0", nil)
	e := trace.Event{Kind: trace.KindRefreshSkipped, Time: 5, Chip: 1, Bank: 2, Row: 3}
	if allocs := testing.AllocsPerRun(1000, func() { sink.Emit(e) }); allocs != 0 {
		t.Fatalf("disarmed emit allocates %.1f bytes-worth of objects per op, want 0", allocs)
	}
}

// TestFlightRecorderArmedNoAllocs checks the armed path too: the first
// emission allocates the flight ring's one chunk, and recording stays
// allocation-free after it.
func TestFlightRecorderArmedNoAllocs(t *testing.T) {
	plane := newTestPlane()
	plane.Recorder.Arm()
	sink := plane.TraceSink("rank0", nil)
	e := trace.Event{Kind: trace.KindRefreshIssued, Time: 7}
	if allocs := testing.AllocsPerRun(1000, func() { sink.Emit(e) }); allocs != 0 {
		t.Fatalf("armed emit allocates %.1f objects per op, want 0", allocs)
	}
}

// TestFlightRecorderAutoArm checks the post-mortem contract: a retention
// violation arms the recorder, and the violation event itself is the
// first event recorded.
func TestFlightRecorderAutoArm(t *testing.T) {
	plane := newTestPlane()
	sink := plane.TraceSink("rank0", nil)

	// Disarmed: ordinary events vanish.
	sink.Emit(trace.Event{Kind: trace.KindRefreshSkipped, Time: 1})
	if plane.Recorder.Armed() || plane.Recorder.Recorded() != 0 {
		t.Fatalf("recorder recorded %d events while disarmed", plane.Recorder.Recorded())
	}

	// The violation trips the recorder and is itself captured.
	sink.Emit(trace.Event{Kind: trace.KindRetentionViolation, Time: 2, Row: 9})
	if !plane.Recorder.Armed() {
		t.Fatal("retention violation did not arm the recorder")
	}
	if plane.Recorder.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", plane.Recorder.Trips())
	}
	sink.Emit(trace.Event{Kind: trace.KindRefreshIssued, Time: 3})

	evs := plane.Recorder.Events()
	if len(evs) != 2 {
		t.Fatalf("recorded %d events, want 2 (violation + follow-up)", len(evs))
	}
	if evs[0].Kind != trace.KindRetentionViolation || evs[0].Row != 9 {
		t.Fatalf("first recorded event is %v, want the retention violation", evs[0].Kind)
	}
}

// TestFlightRecorderAutoArmDisabled checks SetAutoArm(false): violations
// count trips but do not arm.
func TestFlightRecorderAutoArmDisabled(t *testing.T) {
	plane := newTestPlane()
	plane.Recorder.SetAutoArm(false)
	sink := plane.TraceSink("rank0", nil)
	sink.Emit(trace.Event{Kind: trace.KindRetentionViolation, Time: 1})
	if plane.Recorder.Armed() {
		t.Fatal("recorder armed despite auto-arm disabled")
	}
	if plane.Recorder.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", plane.Recorder.Trips())
	}
}

// TestPlaneSinkPassive pins the Passive transitions that gate the bulk
// idle replay: passive when quiescent, active the moment an inner tracer
// is attached, the recorder arms, or a tail client connects.
func TestPlaneSinkPassive(t *testing.T) {
	plane := newTestPlane()
	plane.Recorder.SetAutoArm(false)
	sink := plane.TraceSink("rank0", nil).(*planeSink)

	if !sink.Passive() {
		t.Fatal("quiescent plane sink should be passive")
	}

	plane.Recorder.Arm()
	if sink.Passive() {
		t.Fatal("armed recorder should make the sink active")
	}
	plane.Recorder.Disarm()

	sub := plane.Tail.Subscribe(4)
	if sink.Passive() {
		t.Fatal("connected tail subscriber should make the sink active")
	}
	plane.Tail.Unsubscribe(sub)
	if !sink.Passive() {
		t.Fatal("sink should return to passive after the subscriber leaves")
	}

	inner := trace.New(16).NewShard("real")
	withInner := plane.TraceSink("rank1", inner).(*planeSink)
	if withInner.Passive() {
		t.Fatal("sink with an inner tracer shard must never be passive")
	}
}

// TestPlaneSinkForwardsToInner checks the tee keeps a real tracer shard
// fed regardless of recorder state.
func TestPlaneSinkForwardsToInner(t *testing.T) {
	plane := newTestPlane()
	plane.Recorder.SetAutoArm(false)
	tr := trace.New(16)
	sink := plane.TraceSink("rank0", tr.NewShard("rank0"))
	sink.Emit(trace.Event{Kind: trace.KindWriteback, Time: 4, A: 2})
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != trace.KindWriteback {
		t.Fatalf("inner tracer saw %v, want the forwarded writeback", evs)
	}
}

// TestFlightDumpChromeJSON checks /flight's payload parses as Chrome
// trace JSON and contains the recorded event.
func TestFlightDumpChromeJSON(t *testing.T) {
	plane := newTestPlane()
	sink := plane.TraceSink("rank0", nil)
	sink.Emit(trace.Event{Kind: trace.KindRetentionViolation, Time: 2000, Row: 5})

	var b bytes.Buffer
	if err := plane.Recorder.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatalf("flight dump is not valid Chrome trace JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Name == "dram.retention_violation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("flight dump does not contain the retention violation: %s", b.String())
	}
}

// TestFlightDumpWhileEmitting dumps the flight rings while they are
// written: one goroutine emits through an armed tee and ticks a watchdog
// whose rule fires every other tick, writing the "obs" ring, until the
// test goroutine has dumped, merged and counted drops 100 times. Every
// dump must be valid JSON and the drop count may only grow; under -race,
// the recorder's lock must order every ring read after the writes it sees.
func TestFlightDumpWhileEmitting(t *testing.T) {
	plane := newTestPlane()
	plane.Recorder.Arm()
	burst := plane.Registry.Counter("test.burst")
	rule, err := ParseRule("burst:test.burst>0")
	if err != nil {
		t.Fatal(err)
	}
	wd := plane.InstallWatchdog([]Rule{rule}, 1)
	sink := plane.TraceSink("rank0", nil)
	stop := make(chan struct{})
	emitted := make(chan int, 1)
	go func() {
		for i := 0; ; i++ {
			sink.Emit(trace.Event{Kind: trace.KindRefreshSkipped, Time: int64(i), Row: int32(i % 512)})
			if i%64 != 63 {
				continue
			}
			if i/64%2 == 0 {
				burst.Inc()
			}
			wd.Tick(int64(i/64+1), dram.Time(i))
			select {
			case <-stop:
				if i >= 20000 {
					emitted <- i + 1
					return
				}
			default:
			}
		}
	}()
	var dropped uint64
	dump := func(n int) {
		var b bytes.Buffer
		if err := plane.Recorder.WriteChrome(&b); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(b.Bytes()) {
			t.Fatalf("dump %d is not valid JSON:\n%s", n, b.Bytes())
		}
		if evs := plane.Recorder.Events(); len(evs) > 2*64 {
			t.Fatalf("dump %d merged %d events from two 64-event rings", n, len(evs))
		}
		d := plane.Recorder.Dropped()
		if d < dropped {
			t.Fatalf("dump %d: dropped count fell from %d to %d", n, dropped, d)
		}
		dropped = d
	}
	for n := 0; n < 100; n++ {
		dump(n)
	}
	close(stop)
	events := <-emitted
	dump(100)
	fired := wd.Fired()[0]
	if want := int64(events/64+1) / 2; fired != want {
		t.Fatalf("the watchdog rule fired %d times over %d events, want %d", fired, events, want)
	}
	if want := uint64(int64(events) + fired - 2*64); dropped != want {
		t.Fatalf("final dropped count %d after %d events and %d alerts, want %d", dropped, events, fired, want)
	}
}

// BenchmarkFlightRecorderEmit measures the tee in its three states; the
// disarmed case is the steady-state cost every `zrsim -serve` run pays
// per event.
func BenchmarkFlightRecorderEmit(b *testing.B) {
	e := trace.Event{Kind: trace.KindRefreshSkipped, Time: 5, Chip: 1, Bank: 2, Row: 3, A: 4}

	b.Run("disarmed", func(b *testing.B) {
		plane := newTestPlane()
		plane.Recorder.SetAutoArm(false)
		sink := plane.TraceSink("rank0", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink.Emit(e)
		}
	})

	b.Run("armed", func(b *testing.B) {
		plane := newTestPlane()
		plane.Recorder.Arm()
		sink := plane.TraceSink("rank0", nil)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink.Emit(e)
		}
	})

	b.Run("tail", func(b *testing.B) {
		plane := newTestPlane()
		plane.Recorder.SetAutoArm(false)
		sink := plane.TraceSink("rank0", nil)
		sub := plane.Tail.Subscribe(64)
		defer plane.Tail.Unsubscribe(sub)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink.Emit(e) // subscriber never drains: steady-state drops
		}
	})
}
