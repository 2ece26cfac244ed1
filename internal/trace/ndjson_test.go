package trace

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestEventNDJSONFormat pins the single NDJSON event encoding byte for
// byte: the live tail (internal/obs), zrsim's .ndjson export and the
// offline reader all share this line format.
func TestEventNDJSONFormat(t *testing.T) {
	e := Event{Kind: KindRefreshSkipped, Shard: 2, Time: 42, Chip: 1, Bank: 3, Row: 4, A: 5, B: 6, Seq: 7}
	got := string(AppendNDJSON([]byte("prefix:"), e))
	want := `prefix:{"kind":"refresh.skipped","shard":2,"time_ns":42,"chip":1,"bank":3,"row":4,"a":5,"b":6,"seq":7}`
	if got != want {
		t.Errorf("AppendNDJSON:\ngot  %s\nwant %s", got, want)
	}
	if !json.Valid([]byte(strings.TrimPrefix(got, "prefix:"))) {
		t.Error("AppendNDJSON output is not valid JSON")
	}
	neg := Event{Kind: KindWindowRollover, Shard: 1, Time: 32000000, Chip: -1, Bank: -1, Row: -1, A: 2048, B: 0, Seq: 2049}
	wantNeg := `{"kind":"refresh.window_rollover","shard":1,"time_ns":32000000,"chip":-1,"bank":-1,"row":-1,"a":2048,"b":0,"seq":2049}`
	if got := string(AppendNDJSON(nil, neg)); got != wantNeg {
		t.Errorf("AppendNDJSON negative coords:\ngot  %s\nwant %s", got, wantNeg)
	}
}

// TestNDJSONRoundTrip drives every kind through encode -> decode and
// requires the exact event back.
func TestNDJSONRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		e := Event{
			Kind: k, Shard: int32(k), Time: int64(k) * 1001,
			Chip: -1, Bank: int32(k % 8), Row: 1000 + int32(k),
			A: int64(k) * 3, B: -int64(k), Seq: uint64(k) + 9,
		}
		got, err := DecodeNDJSON(AppendNDJSON(nil, e))
		if err != nil {
			t.Fatalf("kind %v: %v", k, err)
		}
		if got != e {
			t.Fatalf("kind %v round trip:\ngot  %+v\nwant %+v", k, got, e)
		}
	}
}

func TestKindByName(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := KindByName(k.String())
		if !ok || got != k {
			t.Fatalf("KindByName(%q) = %v,%v, want %v,true", k.String(), got, ok, k)
		}
	}
	if _, ok := KindByName("meta.shard"); ok {
		t.Fatal("meta.shard is not an event kind")
	}
	if _, ok := KindByName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

// TestWriteReadNDJSON pins the stream framing: meta.shard label lines
// first, then the merged events, and ReadNDJSON recovers both exactly.
func TestWriteReadNDJSON(t *testing.T) {
	tr := New(16)
	cpu := tr.NewShard("cpu")
	rank := tr.NewShard("rank0")
	cpu.Emit(Event{Kind: KindCodecSelect, Time: 0, Chip: -1, Bank: -1, Row: 3, A: 1, B: 6})
	rank.Emit(Event{Kind: KindWriteback, Time: 10, Chip: -1, Bank: 2, Row: 7, A: 4})
	rank.Emit(Event{Kind: KindRefreshIssued, Time: 20, Chip: -1, Bank: 2, Row: 7, A: 8})

	var b strings.Builder
	if err := WriteNDJSON(&b, tr); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), out)
	}
	if lines[0] != `{"kind":"meta.shard","shard":0,"name":"cpu"}` ||
		lines[1] != `{"kind":"meta.shard","shard":1,"name":"rank0"}` {
		t.Fatalf("meta lines drifted:\n%s\n%s", lines[0], lines[1])
	}

	events, labels, err := ReadNDJSON(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if len(events) != len(want) {
		t.Fatalf("read %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("event %d: got %+v want %+v", i, events[i], want[i])
		}
	}
	if labels[0] != "cpu" || labels[1] != "rank0" || len(labels) != 2 {
		t.Fatalf("labels = %v", labels)
	}
}

func TestReadNDJSONErrors(t *testing.T) {
	if _, _, err := ReadNDJSON(strings.NewReader(`{"kind":"no.such.kind","shard":0}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, _, err := ReadNDJSON(strings.NewReader(`{not json`)); err == nil {
		t.Fatal("malformed line accepted")
	}
	events, _, err := ReadNDJSON(strings.NewReader("\n  \n"))
	if err != nil || len(events) != 0 {
		t.Fatalf("blank stream: %v, %d events", err, len(events))
	}
}
