package attr

import (
	"strings"
	"testing"

	"zerorefresh/internal/trace"
)

func mkEvents(n int) []trace.Event {
	ev := make([]trace.Event, n)
	for i := range ev {
		ev[i] = trace.Event{
			Kind:  trace.Kind(i % 3),
			Shard: int32(i % 2),
			Time:  int64(i) * 10,
			Chip:  -1, Bank: int32(i % 8), Row: int32(i % 64),
			A: int64(i), B: int64(-i), Seq: uint64(i / 2),
		}
	}
	return ev
}

func TestFirstDivergence(t *testing.T) {
	a := mkEvents(100)
	b := mkEvents(100)
	if got := firstDivergence(a, b); got != -1 {
		t.Fatalf("identical streams: got %d, want -1", got)
	}
	b[57].A = 999
	if got := firstDivergence(a, b); got != 57 {
		t.Fatalf("payload divergence: got %d, want 57", got)
	}
	if got := firstDivergence(a, a[:60]); got != 60 {
		t.Fatalf("truncated stream: got %d, want 60", got)
	}
	if got := firstDivergence(nil, nil); got != -1 {
		t.Fatalf("empty streams: got %d, want -1", got)
	}
}

func TestDiffContext(t *testing.T) {
	a := mkEvents(20)
	b := mkEvents(20)
	b[5].Row = 77
	d := Diff(a, b, 3)
	if d == nil || d.Index != 5 {
		t.Fatalf("Diff = %+v, want index 5", d)
	}
	if !d.HasA || !d.HasB || d.A != a[5] || d.B != b[5] {
		t.Fatalf("divergent events wrong: %+v", d)
	}
	if len(d.Common) != 3 || d.Common[0] != a[2] || d.Common[2] != a[4] {
		t.Fatalf("common context wrong: %+v", d.Common)
	}
	if len(d.AfterA) != 3 || d.AfterA[0] != a[6] {
		t.Fatalf("afterA wrong: %+v", d.AfterA)
	}
	if d.LenA != 20 || d.LenB != 20 {
		t.Fatalf("lengths wrong: %d, %d", d.LenA, d.LenB)
	}

	// Divergence at index 0: no common context.
	b2 := mkEvents(20)
	b2[0].Kind = trace.KindAlert
	if d := Diff(a, b2, 3); d == nil || d.Index != 0 || len(d.Common) != 0 {
		t.Fatalf("index-0 divergence: %+v", d)
	}

	// Truncation: B side has no event at the divergence index.
	if d := Diff(a, a[:7], 2); d == nil || d.Index != 7 || !d.HasA || d.HasB {
		t.Fatalf("truncation divergence: %+v", d)
	}
	if Diff(a, b, 0).Common != nil {
		t.Fatal("context 0 kept common events")
	}
}

func TestDiffReport(t *testing.T) {
	a := mkEvents(10)
	b := mkEvents(10)
	b[4].A, b[4].B = 123, 456
	rep := Diff(a, b, 2).Report("runA", "runB")
	for _, want := range []string{
		"first divergence at event 4",
		"A: runA (10 events)",
		"fields differing: a, b",
		"t=40ns shard=0 seq=2",
	} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	if got := (*Divergence)(nil).Report("x", "y"); got != "no divergence\n" {
		t.Fatalf("nil report = %q", got)
	}
}

func ndjson(ev []trace.Event) string {
	var b []byte
	for _, e := range ev {
		b = trace.AppendNDJSON(b, e)
		b = append(b, '\n')
	}
	return string(b)
}

// readDiff loads two NDJSON traces through Read and diffs their events,
// the path `zrquery diff` takes.
func readDiff(a, b string, context int) (*Divergence, error) {
	sa, err := Read(strings.NewReader(a))
	if err != nil {
		return nil, err
	}
	sb, err := Read(strings.NewReader(b))
	if err != nil {
		return nil, err
	}
	return Diff(sa.Events, sb.Events, context), nil
}

func TestDiffStreams(t *testing.T) {
	a := mkEvents(50)
	b := mkEvents(50)

	d, err := readDiff(ndjson(a), ndjson(b), 3)
	if err != nil || d != nil {
		t.Fatalf("identical streams: d=%+v err=%v", d, err)
	}

	b[30].Bank = 7
	d, err = readDiff(ndjson(a), ndjson(b), 3)
	if err != nil || d == nil || d.Index != 30 {
		t.Fatalf("divergent streams: d=%+v err=%v", d, err)
	}
	if len(d.Common) != 3 || d.Common[2] != a[29] {
		t.Fatalf("context wrong: %+v", d.Common)
	}
	if d.LenA != 50 || d.LenB != 50 {
		t.Fatalf("stream lengths: %d, %d", d.LenA, d.LenB)
	}
	if d.A != a[30] || d.B != b[30] {
		t.Fatalf("divergent events: %+v vs %+v", d.A, d.B)
	}

	// Meta lines must not count as events.
	withMeta := "{\"kind\":\"meta.shard\",\"shard\":0,\"name\":\"cpu\"}\n" + ndjson(a)
	d, err = readDiff(withMeta, ndjson(a), 2)
	if err != nil || d != nil {
		t.Fatalf("meta lines counted as events: d=%+v err=%v", d, err)
	}

	// Truncated B stream.
	d, err = readDiff(ndjson(a), ndjson(a[:20]), 2)
	if err != nil || d == nil || d.Index != 20 || d.HasB || !d.HasA {
		t.Fatalf("truncated stream: d=%+v err=%v", d, err)
	}

	// Malformed input is an error, not a divergence.
	if _, err := readDiff("{bad", ndjson(a), 0); err == nil {
		t.Fatal("malformed stream accepted")
	}
}

type fakeTB struct {
	failed string
}

func (f *fakeTB) Helper() {}
func (f *fakeTB) Fatalf(format string, args ...interface{}) {
	f.failed = format
}

func TestMustMatch(t *testing.T) {
	a := mkEvents(10)
	var tb fakeTB
	MustMatch(&tb, "twins", a, a)
	if tb.failed != "" {
		t.Fatalf("identical streams failed: %q", tb.failed)
	}
	b := mkEvents(10)
	b[3].Time = 999
	MustMatch(&tb, "twins", a, b)
	if tb.failed == "" {
		t.Fatal("divergent streams passed")
	}
}
