package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// eventsBySort is the reference merge the export path is checked
// against: every shard's held events walked one ring slot at a time,
// appended, and sorted by (Time, Shard, Seq) with sort.Slice.
func eventsBySort(t *Tracer) []Event {
	var out []Event
	for _, s := range t.Shards() {
		start := s.oldest()
		for i := 0; i < s.Len(); i++ {
			out = append(out, s.at((start+i)%s.size))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Seq < b.Seq
	})
	return out
}

// writeNDJSONSerial is the reference NDJSON writer: fmt for the label
// lines, one buffered write per event line, over the reference merge.
func writeNDJSONSerial(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	for _, s := range t.Shards() {
		if _, err := fmt.Fprintf(bw, "{\"kind\":\"meta.shard\",\"shard\":%d,\"name\":%s}\n", s.id, JSONString(s.label)); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 128)
	for _, e := range eventsBySort(t) {
		buf = AppendNDJSON(buf[:0], e)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeChromeFmt is the reference Chrome writer: one fmt.Fprintf per
// record, over the reference merge. appendChromeRecord must match its
// bytes exactly, including %q kind names and %d.%03d for negative times.
func writeChromeFmt(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	for _, s := range t.Shards() {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		if _, err := fmt.Fprintf(bw,
			`{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":%s}}`,
			s.id, JSONString(s.label)); err != nil {
			return err
		}
	}
	for _, e := range eventsBySort(t) {
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		if _, err := fmt.Fprintf(bw,
			`{"name":%q,"ph":"i","s":"t","pid":0,"tid":%d,"ts":%d.%03d,"args":{"chip":%d,"bank":%d,"row":%d,"a":%d,"b":%d,"seq":%d}}`,
			e.Kind.String(), e.Shard, e.Time/1000, e.Time%1000,
			e.Chip, e.Bank, e.Row, e.A, e.B, e.Seq); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw,
		"\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%d}}\n",
		t.Dropped()); err != nil {
		return err
	}
	return bw.Flush()
}

// exporters pairs each exporter with its reference writer.
var exporters = []struct {
	name       string
	write, ref func(io.Writer, *Tracer) error
}{
	{"ndjson", WriteNDJSON, writeNDJSONSerial},
	{"chrome", WriteChrome, writeChromeFmt},
}

// mix is a deterministic event source (SplitMix64).
type mix uint64

func (m *mix) next() uint64 {
	*m += 0x9e3779b97f4a7c15
	z := uint64(*m)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// tracedShaped returns a tracer holding n events shaped like a traced
// run's: a cpu shard of codec selects at time 0 and a rank0 shard of
// writebacks between refresh steps, each step's events at one time. With
// odd set, one refresh step in three gets a negative time, an
// out-of-range kind or extreme coordinates, so the encoders see those
// too and the events must be sorted.
func tracedShaped(n int, odd bool) *Tracer {
	t := New(n + 1)
	cpu, rank := t.NewShard("cpu"), t.NewShard("rank0")
	m := mix(uint64(n))
	now := int64(0)
	for i := 0; i < n; i++ {
		r := m.next()
		switch {
		case i%2 == 0:
			cpu.Emit(Event{Kind: KindCodecSelect, Chip: -1, Bank: -1, Row: int32(r % 4096), A: int64(r >> 60), B: int64(r >> 58 & 15)})
		case r%16 != 0:
			rank.Emit(Event{Kind: KindWriteback, Time: now, Chip: -1, Bank: int32(r % 8), Row: int32(r >> 8 % 4096), A: int64(r >> 20 % 32)})
		default:
			now += int64(r>>32%7811) + 1
			e := Event{Kind: KindRefreshSkipped, Time: now, Chip: -1, Bank: int32(r >> 4 % 8), Row: int32(r >> 8 % 4096), A: int64(r >> 24 % 9)}
			if odd {
				switch r >> 40 % 9 {
				case 0:
					e.Time = -int64(r >> 44 % 3000)
				case 1:
					e.Kind, e.B = Kind(200), -1<<63
				case 2:
					e.Kind, e.Chip, e.Bank, e.Row, e.A = KindRefreshIssued, -1<<31, 1<<31-1, -7, 1<<63-1
				}
			}
			rank.Emit(e)
		}
	}
	return t
}

// blockSizes are the export sizes at and around block boundaries, and
// one of ten blocks, more than there are buffers at GOMAXPROCS 4.
var blockSizes = []int{0, 1, blockEvents - 1, blockEvents, blockEvents + 1, 3*blockEvents + 7, 9*blockEvents + 5}

// TestWritersMatchReference exports traces at and around block boundaries
// under GOMAXPROCS 1, 2, 4 and 8 (above maxEncoders): every byte must
// equal the serial reference writers', with the reference merge as their
// order.
func TestWritersMatchReference(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range blockSizes {
			for _, odd := range []bool{false, true} {
				tr := tracedShaped(n, odd)
				for _, x := range exporters {
					var got, want bytes.Buffer
					if err := x.write(&got, tr); err != nil {
						t.Fatal(err)
					}
					if err := x.ref(&want, tr); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						at := 0
						for at < min(got.Len(), want.Len()) && got.Bytes()[at] == want.Bytes()[at] {
							at++
						}
						t.Fatalf("GOMAXPROCS %d, %d events (odd %v), %s: %d bytes, reference %d; first difference at byte %d:\n%.200s\nwant\n%.200s",
							procs, n, odd, x.name, got.Len(), want.Len(), at, got.Bytes()[at:], want.Bytes()[at:])
					}
				}
			}
		}
	}
}

// TestWritersSortUnorderedShards exports shards that must take the sort
// path although each is one shard laid out in one run: a shard that
// emitted a time below its predecessor's, one whose step back has since
// been overwritten, and copies of both. The copies must carry the flag, and
// every byte must equal the reference writers'.
func TestWritersSortUnorderedShards(t *testing.T) {
	for _, chunk := range chunkLens {
		for _, times := range [][]int64{
			{0, 1, 2, 5, 3, 6, 7},
			{4, 2, 5, 6, 7, 8, 9, 9, 10, 11},
		} {
			src := New(8)
			s := src.newShard("rank0", chunk)
			for i, at := range times {
				s.Emit(Event{Kind: KindRefreshSkipped, Time: at, Row: int32(i)})
			}
			dst := New(8)
			if err := dst.newShard("rank0", blockEvents).CopyFrom(s); err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*Tracer{src, dst} {
				if inOrder(tr.Shards()) {
					t.Fatalf("chunk %d, times %v: an unordered shard passes as in order", chunk, times)
				}
				for _, x := range exporters {
					var got, want bytes.Buffer
					if err := x.write(&got, tr); err != nil {
						t.Fatal(err)
					}
					if err := x.ref(&want, tr); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got.Bytes(), want.Bytes()) {
						t.Fatalf("chunk %d, times %v, %s:\n%s\nwant\n%s", chunk, times, x.name, got.Bytes(), want.Bytes())
					}
				}
			}
		}
	}
	if !inOrder(tracedShaped(3*blockEvents+7, false).Shards()) {
		t.Fatal("a traced-shaped trace does not export in place")
	}
}

var errWrite = errors.New("write failed")

// failingWriter accepts n bytes, then fails every write; it counts the
// writes it is asked for after the first failure.
type failingWriter struct {
	n     int
	after int
	fail  bool
}

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.fail {
		w.after++
		return 0, errWrite
	}
	if len(p) > w.n {
		w.fail = true
		return w.n, errWrite
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWritersReturnWriteError fails the destination at an export's first
// write and halfway through it: the error must come back, nothing more
// may be written, and every encoding goroutine must have exited.
func TestWritersReturnWriteError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 9*blockEvents + 5} {
			tr := tracedShaped(n, true)
			for _, x := range exporters {
				var whole countingWriter
				if err := x.ref(&whole, tr); err != nil {
					t.Fatal(err)
				}
				for _, after := range []int{0, int(whole.n / 2)} {
					before := settledGoroutines()
					w := &failingWriter{n: after}
					if err := x.write(w, tr); !errors.Is(err, errWrite) || w.after != 0 {
						t.Fatalf("GOMAXPROCS %d, %d events, %s failing after %d bytes: error %v and %d writes after it, want %v and none", procs, n, x.name, after, err, w.after, errWrite)
					}
					// An exited goroutine may still be counted for a moment.
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if got := runtime.NumGoroutine(); got != before {
						t.Fatalf("GOMAXPROCS %d, %d events, %s: %d goroutines after a failed export, %d before", procs, n, x.name, got, before)
					}
				}
			}
		}
	}
}

// settledGoroutines returns the goroutine count once it holds still for a
// millisecond (or after a second): an encoder of an export that has
// returned is still counted until it exits, and counted in a baseline it
// would make the count fall during the next export.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestAppendMicrosMatchesFmt checks the timestamp encoder against fmt's
// "%d.%03d" at the edges of its cases, negative times included.
func TestAppendMicrosMatchesFmt(t *testing.T) {
	for _, ns := range []int64{0, 1, 9, 10, 99, 100, 999, 1000, 1001, 123456, -1, -9, -10, -99, -100, -999, -1000, -1001, -1010, -1500, 1<<63 - 1, -1 << 63} {
		want := fmt.Sprintf("%d.%03d", ns/1000, ns%1000)
		if got := string(appendMicros(nil, ns)); got != want {
			t.Errorf("appendMicros(%d) = %q, want %q", ns, got, want)
		}
	}
}

// fuzzShards builds a tracer from the fuzz input: shards of several
// capacities and chunk lengths, some adopted from unit tracers, some
// copies of the shard before them, holding wrapped and partly filled rings
// whose runs are in or out of Time order and tie in Time within and across
// shards.
func fuzzShards(data []byte) *Tracer {
	at := 0
	next := func() int {
		if at >= len(data) {
			return 0
		}
		at++
		return int(data[at-1])
	}
	fill := func(tr *Tracer, shards int) {
		var prev *Shard
		for range shards {
			s := tr.newShard(fmt.Sprintf("s%d", next()%4), 1+next()%5)
			if prev != nil && next()%4 == 0 {
				if err := s.CopyFrom(prev); err != nil {
					panic(err)
				}
			}
			prev = s
			emits, style := next()%48, next()%4
			now := int64(next()%5) - 2
			for i := range emits {
				switch style {
				case 0: // in order, with ties
					now += int64(next() % 3)
				case 1: // out of order over a narrow range
					now = int64(next()%8) - 2
				case 2: // all at one time
				case 3: // in order, then one step back
					if i == emits/2 {
						now -= 3
					} else {
						now += int64(next() % 2)
					}
				}
				s.Emit(Event{Kind: Kind(next() % int(numKinds)), Time: now, Row: int32(i)})
			}
		}
	}
	tr := New(1 + next()%12)
	fill(tr, next()%4)
	for u := next() % 4; u > 0; u-- {
		unit := New(1 + next()%12)
		fill(unit, 1+next()%3)
		tr.Adopt(unit)
	}
	return tr
}

// FuzzEventsMatchesSort holds Tracer.Events, and the exporters that run
// on it, equal to the reference merge on random shard sets.
func FuzzEventsMatchesSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 2, 0, 30, 0, 0, 0, 40, 1, 2})
	f.Add([]byte{11, 3, 1, 47, 3, 2, 9, 9, 9, 9, 2, 20, 1, 7, 5, 5, 5, 3, 3, 1, 30, 2})
	f.Add(bytes.Repeat([]byte{7, 1, 3, 200, 5, 1}, 20))
	f.Add([]byte{11, 2, 1, 2, 40, 0, 0, 0, 1, 0, 1, 0, 3, 3, 4, 0, 47, 0, 4, 1, 0, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := fuzzShards(data)
		if got, want := tr.Events(), eventsBySort(tr); !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
			t.Fatalf("Events:\n%+v\nwant\n%+v", got, want)
		}
		for _, x := range exporters {
			var got, want bytes.Buffer
			if err := x.write(&got, tr); err != nil {
				t.Fatal(err)
			}
			if err := x.ref(&want, tr); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%s export:\n%s\nwant\n%s", x.name, got.Bytes(), want.Bytes())
			}
		}
	})
}

// FuzzReadNDJSON feeds arbitrary bytes to the NDJSON reader: it must
// return an error or events that encode and decode back to themselves,
// and never panic.
func FuzzReadNDJSON(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteNDJSON(&seed, tracedShaped(6, true)); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("\n  \n"))
	f.Add([]byte(`{"kind":"refresh.skipped","time_ns":-5,"seq":18446744073709551615}`))
	f.Add([]byte(`{"kind":"meta.shard","shard":3,"name":"\u00e9"}` + "\n" + `{"kind":"obs.alert","a":1}`))
	f.Add([]byte(`{"kind":"no.such.kind"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, _, err := ReadNDJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var line []byte
		for i, e := range events {
			line = AppendNDJSON(line[:0], e)
			got, err := DecodeNDJSON(line)
			if err != nil || got != e {
				t.Fatalf("event %d %+v re-encoded as %s decodes to %+v, %v", i, e, line, got, err)
			}
		}
		var again strings.Builder
		for _, e := range events {
			again.Write(appendNDJSONLine(nil, e))
		}
		back, _, err := ReadNDJSON(strings.NewReader(again.String()))
		if err != nil || !reflect.DeepEqual(back, events) && len(events) > 0 {
			t.Fatalf("re-encoded stream reads back as %d events, %v; want %d", len(back), err, len(events))
		}
	})
}

// benchEvents is the size of the benchmarks' trace: 16 blocks.
const benchEvents = 16 * blockEvents

// BenchmarkWriteNDJSON exports a traced-shaped trace as NDJSON through the
// block writer and through the serial reference writer.
func BenchmarkWriteNDJSON(b *testing.B) {
	benchWriter(b, WriteNDJSON, writeNDJSONSerial)
}

// BenchmarkWriteChrome exports a traced-shaped trace as Chrome trace-event
// JSON through the block writer and through the fmt reference writer.
func BenchmarkWriteChrome(b *testing.B) {
	benchWriter(b, WriteChrome, writeChromeFmt)
}

func benchWriter(b *testing.B, write, ref func(io.Writer, *Tracer) error) {
	tr := tracedShaped(benchEvents, false)
	for _, c := range []struct {
		name  string
		write func(io.Writer, *Tracer) error
	}{{"blocks", write}, {"reference", ref}} {
		b.Run(c.name, func(b *testing.B) {
			var n countingWriter
			b.ReportAllocs()
			for range b.N {
				if err := c.write(&n, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(n.n / int64(b.N))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchEvents, "ns/event")
		})
	}
}

// countingWriter counts the bytes written to it.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
