package attr

import (
	"bytes"
	"math"
	"testing"

	"zerorefresh/internal/trace"
)

// TestChromeTsNs pins the Chrome "ts" reader: microseconds with up to
// three decimals, signed as a whole, and an error for sub-nanosecond
// digits, the exporter's fmt-style negative remainder, exponents and
// overflow.
func TestChromeTsNs(t *testing.T) {
	for ts, want := range map[string]int64{
		"0.000": 0, "7": 7000, "1.5": 1500, "12.345": 12345,
		"32000.000": 32000000, "-2.000": -2000, "-1.500": -1500, "-0.005": -5,
		"9223372036854775.807": math.MaxInt64,
	} {
		if got, err := chromeTsNs(ts); err != nil || got != want {
			t.Errorf("chromeTsNs(%q) = %d, %v; want %d", ts, got, err, want)
		}
	}
	for _, ts := range []string{"", "1.2345", "0.-05", "-1.-500", "1e3", "--1", "9223372036854775.808"} {
		if got, err := chromeTsNs(ts); err == nil {
			t.Errorf("chromeTsNs(%q) = %d, want an error", ts, got)
		}
	}
}

// FuzzRead feeds arbitrary bytes to the format-detecting reader: Read must
// return an error or a Stream, and Attribute and Derive must return on any
// stream it accepts, all without panicking. The seeds are one tiny export
// per format, a rollover and one refresh event on one shard each: larger
// seeds stall the minimizer.
func FuzzRead(f *testing.F) {
	tr := trace.New(8)
	sh := tr.NewShard("rank0")
	sh.Emit(trace.Event{Kind: trace.KindRefreshSkipped, Time: 42, Chip: -1, Bank: 3, Row: 4, A: 5})
	sh.Emit(trace.Event{Kind: trace.KindWindowRollover, Time: 1500, Chip: -1, Bank: -1, Row: -1, A: 1, B: 1})
	for _, write := range []func(*bytes.Buffer, *trace.Tracer) error{
		func(b *bytes.Buffer, tr *trace.Tracer) error { return trace.WriteChrome(b, tr) },
		func(b *bytes.Buffer, tr *trace.Tracer) error { return trace.WriteNDJSON(b, tr) },
	} {
		var seed bytes.Buffer
		if err := write(&seed, tr); err != nil {
			f.Fatal(err)
		}
		f.Add(seed.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		Attribute(s)
		Derive(s)
	})
}
