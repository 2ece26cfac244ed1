package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// chunkLens are the ring chunk lengths the shard tests run under: short
// enough that a few events cross several chunks and wrap mid-chunk, longer
// than the test rings (one chunk of the capacity), and production's.
var chunkLens = []int{1, 2, 3, 5, blockEvents}

func TestShardRingKeepsNewest(t *testing.T) {
	for _, chunk := range chunkLens {
		s := New(4).newShard("rank0", chunk)
		for i := 0; i < 10; i++ {
			s.Emit(Event{Kind: KindRefreshIssued, Time: int64(i)})
		}
		if s.Len() != 4 {
			t.Fatalf("chunk %d: Len = %d, want 4", chunk, s.Len())
		}
		if s.Dropped() != 6 {
			t.Fatalf("chunk %d: Dropped = %d, want 6", chunk, s.Dropped())
		}
		evs := s.Events()
		for i, e := range evs {
			if want := int64(6 + i); e.Time != want {
				t.Fatalf("chunk %d: event %d time = %d, want %d (oldest-first, newest kept)", chunk, i, e.Time, want)
			}
			if e.Shard != 0 {
				t.Fatalf("chunk %d: event %d shard = %d, want 0", chunk, i, e.Shard)
			}
		}
		if evs[0].Seq != 6 {
			t.Fatalf("chunk %d: first kept seq = %d, want 6", chunk, evs[0].Seq)
		}
	}
}

// TestShardMemoryFollowsEvents emits 20,000 events into a shard of a
// 4M-event tracer: the heap may grow by the chunks those events fill, not
// by the 224 MiB ring the capacity allows.
func TestShardMemoryFollowsEvents(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := New(1 << 22).NewShard("rank0")
	for i := 0; i < 20000; i++ {
		s.Emit(Event{Kind: KindWriteback, Time: int64(i)})
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 4<<20 {
		t.Fatalf("20000 events grew the heap by %d bytes, want under 4 MB", grew)
	}
	if s.Len() != 20000 {
		t.Fatalf("Len = %d, want 20000", s.Len())
	}
}

func TestEventsMergeDeterministic(t *testing.T) {
	// Two shards with interleaved timestamps plus a timestamp tie: the
	// merged order must be (Time, Shard, Seq).
	tr := New(16)
	a := tr.NewShard("rank0")
	b := tr.NewShard("rank1")
	b.Emit(Event{Kind: KindWriteback, Time: 5})
	a.Emit(Event{Kind: KindRefreshIssued, Time: 5})
	a.Emit(Event{Kind: KindRefreshSkipped, Time: 2})
	b.Emit(Event{Kind: KindWindowRollover, Time: 9})

	got := tr.Events()
	want := []struct {
		kind  Kind
		shard int32
	}{
		{KindRefreshSkipped, 0},
		{KindRefreshIssued, 0}, // ts tie at 5: shard 0 before shard 1
		{KindWriteback, 1},
		{KindWindowRollover, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Kind != w.kind || got[i].Shard != w.shard {
			t.Fatalf("event %d = %v/%d, want %v/%d", i, got[i].Kind, got[i].Shard, w.kind, w.shard)
		}
	}
}

func TestConcurrentShardsAreSafe(t *testing.T) {
	// One goroutine per shard, as the rank-sharded system emits.
	tr := New(1024)
	const shards, events = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		s := tr.NewShard("rank")
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < events; j++ {
				s.Emit(Event{Kind: KindRefreshIssued, Time: int64(j)})
			}
		}()
	}
	wg.Wait()
	if got := len(tr.Events()); got != shards*events {
		t.Fatalf("merged %d events, want %d", got, shards*events)
	}
}

func TestWriteChromeIsValidJSONAndDeterministic(t *testing.T) {
	build := func() *Tracer {
		tr := New(8)
		s := tr.NewShard("cpu")
		r := tr.NewShard("rank0")
		s.Emit(Event{Kind: KindCodecSelect, Row: 3, A: CodecEBDI | CodecInverted, B: 5})
		r.Emit(Event{Kind: KindRefreshSkipped, Time: 123456, Bank: 1, Row: 7, A: 2, Chip: -1})
		r.Emit(Event{Kind: KindRetentionViolation, Time: 999, Chip: 2, Bank: 0, Row: 4})
		return tr
	}
	var b1, b2 bytes.Buffer
	if err := WriteChrome(&b1, build()); err != nil {
		t.Fatal(err)
	}
	if err := WriteChrome(&b2, build()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("chrome export not bit-identical across identical tracers")
	}

	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   struct {
			Dropped uint64 `json:"dropped"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("exporter produced invalid JSON: %v\n%s", err, b1.String())
	}
	// 2 thread_name metadata records + 3 events.
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("traceEvents = %d records, want 5", len(doc.TraceEvents))
	}
	if !strings.Contains(b1.String(), `"ts":123.456`) {
		t.Fatalf("ns->us timestamp formatting missing from:\n%s", b1.String())
	}
	if !strings.Contains(b1.String(), `"refresh.skipped"`) {
		t.Fatal("kind name missing from export")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Fatal("out-of-range kind must render as unknown")
	}
}

// TestShardCopyFromRestamps copies rings into shards of another tracer
// that already hold events: a wrapped ring, a partly filled one, one
// filled exactly to its end and an empty one. The copy holds the same
// events, sequence numbers and drop count, stamped with its own id, and
// later emissions continue the sequence.
func TestShardCopyFromRestamps(t *testing.T) {
	for k, chunk := range chunkLens {
		for _, emitted := range []int{6, 2, 4, 0, 13} {
			src := New(4).newShard("rank0", chunk)
			for i := 0; i < emitted; i++ {
				src.Emit(Event{Kind: KindWriteback, Time: int64(i)})
			}
			other := New(4)
			other.NewShard("cpu")
			dst := other.newShard("rank0", chunkLens[(k+1)%len(chunkLens)])
			for i := 0; i < 3; i++ {
				dst.Emit(Event{Kind: KindRefreshIssued, Time: int64(100 + i)})
			}
			if err := dst.CopyFrom(src); err != nil {
				t.Fatal(err)
			}
			if dst.Dropped() != src.Dropped() || dst.Len() != src.Len() {
				t.Fatalf("chunk %d, %d emitted: copy holds %d (dropped %d), source %d (dropped %d)", chunk, emitted, dst.Len(), dst.Dropped(), src.Len(), src.Dropped())
			}
			want := src.Events()
			for i := range want {
				want[i].Shard = dst.ID()
			}
			if got := dst.Events(); !reflect.DeepEqual(got, want) {
				t.Fatalf("chunk %d, %d emitted: copied events %+v, want %+v", chunk, emitted, got, want)
			}
			dst.Emit(Event{Kind: KindWriteback, Time: int64(emitted)})
			evs := dst.Events()
			if last := evs[len(evs)-1]; last.Seq != uint64(emitted) || last.Shard != dst.ID() {
				t.Fatalf("chunk %d, %d emitted: emission after the copy = %+v, want seq %d on shard %d", chunk, emitted, last, emitted, dst.ID())
			}
			if want = append(want, evs[len(evs)-1]); len(want) > 4 {
				want = want[1:]
			}
			if !reflect.DeepEqual(evs, want) {
				t.Fatalf("chunk %d, %d emitted: after one more emission the copy holds %+v, want %+v", chunk, emitted, evs, want)
			}
			if n := min(emitted, 4); src.Len() != n || n > 0 && src.Events()[n-1].Time != int64(emitted-1) {
				t.Fatalf("chunk %d, %d emitted: emitting into the copy changed the source", chunk, emitted)
			}
		}
	}
	src := New(4).NewShard("rank0")
	if err := New(8).NewShard("rank0").CopyFrom(src); err == nil {
		t.Fatal("copy between rings of different capacities succeeded")
	}
}

// TestAdoptRenumbersInOrder adopts two tracers' shards: they follow t's
// own shards in adoption order, their held events carry the new ids, and
// the adopted tracers are left empty.
func TestAdoptRenumbersInOrder(t *testing.T) {
	for _, chunk := range chunkLens {
		tr := New(8)
		tr.NewShard("own")
		units := []*Tracer{New(8), New(8)}
		for u, ut := range units {
			for _, label := range []string{"cpu", "rank0"} {
				s := ut.newShard(label, chunk)
				for i := 0; i < 11; i++ {
					s.Emit(Event{Kind: KindWriteback, Time: int64(i), A: int64(u)})
				}
			}
		}
		tr.Adopt(units[0])
		tr.Adopt(units[1])
		shards := tr.Shards()
		labels := []string{"own", "cpu", "rank0", "cpu", "rank0"}
		if len(shards) != len(labels) {
			t.Fatalf("chunk %d: %d shards, want %d", chunk, len(shards), len(labels))
		}
		for i, s := range shards {
			if s.ID() != int32(i) || s.Label() != labels[i] {
				t.Fatalf("chunk %d: shard %d is %q id %d, want %q", chunk, i, s.Label(), s.ID(), labels[i])
			}
			evs := s.Events()
			if i > 0 && len(evs) != 8 {
				t.Fatalf("chunk %d: shard %d holds %d events, want 8", chunk, i, len(evs))
			}
			for _, e := range evs {
				if e.Shard != int32(i) || (i > 0 && e.A != int64((i-1)/2)) {
					t.Fatalf("chunk %d: shard %d holds %+v", chunk, i, e)
				}
			}
		}
		for _, ut := range units {
			if len(ut.Shards()) != 0 {
				t.Fatal("an adopted tracer still holds shards")
			}
		}
	}
}

// BenchmarkShardEmit times Emit into a ring that has wrapped, the steady
// state of a long traced run, and into rings that are still allocating
// their chunks (a fresh 16-chunk ring every 16 chunks of events).
func BenchmarkShardEmit(b *testing.B) {
	e := Event{Kind: KindWriteback, Chip: -1, Bank: 2, Row: 7}
	b.Run("wrapped", func(b *testing.B) {
		s := New(4 * blockEvents).NewShard("rank0")
		for range 5 * blockEvents {
			s.Emit(e)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := range b.N {
			e.Time = int64(i)
			s.Emit(e)
		}
	})
	b.Run("growing", func(b *testing.B) {
		const ring = 16 * blockEvents
		b.ReportAllocs()
		var s *Shard
		for i := range b.N {
			if i%ring == 0 {
				s = New(ring).NewShard("rank0")
			}
			e.Time = int64(i)
			s.Emit(e)
		}
	})
}
