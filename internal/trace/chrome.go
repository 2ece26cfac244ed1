package trace

import (
	"io"
	"strconv"
)

// Chrome trace-event exporter. The output is the JSON Object Format of the
// Trace Event specification, loadable by chrome://tracing and Perfetto:
// one instant event per simulation event, with the shard as the thread
// (tid) and thread_name metadata naming it "cpu"/"rank0"/....
//
// The writer is hand-rolled rather than encoding/json so the byte stream
// is fully deterministic: fields appear in a fixed order and timestamps
// are formatted with integer arithmetic (ts is microseconds; simulation
// time is nanoseconds, so ts carries three fixed decimals).

// WriteChrome writes every event currently held by the tracer, in the
// deterministic merged order of Tracer.Events.
func WriteChrome(w io.Writer, t *Tracer) error {
	shards := t.Shards()
	head := []byte("{\"traceEvents\":[\n")
	for i, s := range shards {
		if i > 0 {
			head = append(head, ",\n"...)
		}
		head = append(head, `{"name":"thread_name","ph":"M","pid":0,"tid":`...)
		head = strconv.AppendInt(head, int64(s.ID()), 10)
		head = append(head, `,"args":{"name":`...)
		head = append(head, JSONString(s.Label())...)
		head = append(head, "}}"...)
	}
	// Every event follows its shard's thread_name record, so each one
	// opens with the separator.
	blocks := mergeShards(shards)
	tail := strconv.AppendUint([]byte("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":"), t.Dropped(), 10)
	tail = append(tail, "}}\n"...)
	return writeBlocks(w, head, blocks, appendChromeRecord, tail)
}

// appendChromeRecord appends a record separator and the event's Chrome
// trace-event record: an instant event on its shard's thread, the kind as
// its name and the remaining fields as its args.
func appendChromeRecord(dst []byte, e Event) []byte {
	dst = append(dst, ",\n{\"name\":"...)
	dst = append(dst, quotedKindNames[min(e.Kind, numKinds)]...)
	dst = append(dst, `,"ph":"i","s":"t","pid":0,"tid":`...)
	dst = strconv.AppendInt(dst, int64(e.Shard), 10)
	dst = append(dst, `,"ts":`...)
	dst = appendMicros(dst, e.Time)
	dst = append(dst, `,"args":{"chip":`...)
	dst = strconv.AppendInt(dst, int64(e.Chip), 10)
	dst = append(dst, `,"bank":`...)
	dst = strconv.AppendInt(dst, int64(e.Bank), 10)
	dst = append(dst, `,"row":`...)
	dst = strconv.AppendInt(dst, int64(e.Row), 10)
	dst = append(dst, `,"a":`...)
	dst = strconv.AppendInt(dst, e.A, 10)
	dst = append(dst, `,"b":`...)
	dst = strconv.AppendInt(dst, e.B, 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	return append(dst, "}}"...)
}

// quotedKindNames holds each kind's name as a JSON string literal, and at
// numKinds the name every out-of-range kind shares.
var quotedKindNames = func() (q [numKinds + 1]string) {
	for k := range q {
		q[k] = JSONString(Kind(k).String())
	}
	return q
}()

// appendMicros appends a nanosecond time as microseconds the way
// fmt's "%d.%03d" renders ns/1000 and ns%1000. For a negative time the
// remainder is negative too, and fmt pads it after its sign to three
// characters in all: -5 ns is "0.-05", -1500 ns is "-1.-500".
func appendMicros(dst []byte, ns int64) []byte {
	dst = strconv.AppendInt(dst, ns/1000, 10)
	dst = append(dst, '.')
	frac := ns % 1000
	if frac < 0 {
		dst = append(dst, '-')
		if frac > -10 {
			dst = append(dst, '0')
		}
		return strconv.AppendInt(dst, -frac, 10)
	}
	return append(dst, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
}
