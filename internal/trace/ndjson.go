package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// NDJSON event encoding: one JSON object per line, the exact format the
// introspection plane's /trace/tail endpoint streams. This file is the
// single implementation — internal/obs renders tail lines through
// AppendNDJSON, zrsim -trace writes .ndjson files through WriteNDJSON, and
// the offline analytics reader (internal/attr) parses both through
// ReadNDJSON — so a captured tail and an exported trace file are
// byte-compatible by construction.
//
// The encoder is hand-rolled (strconv, no encoding/json) so the byte
// stream is fully deterministic: fields appear in a fixed order and
// integers are formatted with integer arithmetic. The decoder accepts the
// fields in any order, so hand-edited or filtered streams still load.

// AppendNDJSON appends the event's NDJSON encoding (without a trailing
// newline) to dst and returns the extended slice.
func AppendNDJSON(dst []byte, e Event) []byte {
	dst = append(dst, `{"kind":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, `","shard":`...)
	dst = strconv.AppendInt(dst, int64(e.Shard), 10)
	dst = append(dst, `,"time_ns":`...)
	dst = strconv.AppendInt(dst, e.Time, 10)
	dst = append(dst, `,"chip":`...)
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
	dst = append(dst, '}')
	return dst
}

// KindByName returns the kind with the given exporter name (the inverse of
// Kind.String).
func KindByName(name string) (Kind, bool) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), true
		}
	}
	return 0, false
}

// WriteNDJSON writes the tracer's shard labels followed by every held
// event in the deterministic merged order of Tracer.Events, one NDJSON
// line each. Shard labels travel as leading metadata lines
// ({"kind":"meta.shard",...}); event lines are byte-identical to what the
// live tail streams for the same events.
func WriteNDJSON(w io.Writer, t *Tracer) error {
	shards := t.Shards()
	var head []byte
	for _, s := range shards {
		head = append(head, `{"kind":"meta.shard","shard":`...)
		head = strconv.AppendInt(head, int64(s.ID()), 10)
		head = append(head, `,"name":`...)
		head = append(head, JSONString(s.Label())...)
		head = append(head, "}\n"...)
	}
	return writeBlocks(w, head, mergeShards(shards), appendNDJSONLine, nil)
}

// appendNDJSONLine appends the event's NDJSON line, newline included.
func appendNDJSONLine(dst []byte, e Event) []byte {
	return append(AppendNDJSON(dst, e), '\n')
}

// ndjsonLine mirrors the encoder's field set for decoding; meta.shard
// lines reuse kind+shard and carry the label in name.
type ndjsonLine struct {
	Kind   string `json:"kind"`
	Shard  int32  `json:"shard"`
	TimeNs int64  `json:"time_ns"`
	Chip   int32  `json:"chip"`
	Bank   int32  `json:"bank"`
	Row    int32  `json:"row"`
	A      int64  `json:"a"`
	B      int64  `json:"b"`
	Seq    uint64 `json:"seq"`
	Name   string `json:"name"`
}

// DecodeNDJSON parses one event line produced by AppendNDJSON (or the
// live tail). Metadata lines are not events; use ReadNDJSON for whole
// streams.
func DecodeNDJSON(line []byte) (Event, error) {
	var l ndjsonLine
	if err := unmarshalLine(line, &l); err != nil {
		return Event{}, err
	}
	return l.event()
}

func (l ndjsonLine) event() (Event, error) {
	k, ok := KindByName(l.Kind)
	if !ok {
		return Event{}, fmt.Errorf("trace: unknown event kind %q", l.Kind)
	}
	return Event{
		Kind: k, Shard: l.Shard, Time: l.TimeNs,
		Chip: l.Chip, Bank: l.Bank, Row: l.Row,
		A: l.A, B: l.B, Seq: l.Seq,
	}, nil
}

// ReadNDJSON reads a whole NDJSON event stream: events in stream order
// plus any shard labels carried by meta.shard lines (empty map when the
// stream has none — a captured tail, for example). Blank lines are
// skipped; a malformed or unknown-kind line is an error carrying its line
// number.
func ReadNDJSON(r io.Reader) ([]Event, map[int32]string, error) {
	labels := make(map[int32]string)
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(trimSpace(line)) == 0 {
			continue
		}
		var l ndjsonLine
		if err := unmarshalLine(line, &l); err != nil {
			return nil, nil, fmt.Errorf("trace: ndjson line %d: %v", lineNo, err)
		}
		if l.Kind == "meta.shard" {
			labels[l.Shard] = l.Name
			continue
		}
		e, err := l.event()
		if err != nil {
			return nil, nil, fmt.Errorf("trace: ndjson line %d: %v", lineNo, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return events, labels, nil
}

// unmarshalLine decodes one line. The write path stays hand-rolled for
// byte determinism; reading back may use encoding/json freely.
func unmarshalLine(line []byte, l *ndjsonLine) error {
	return json.Unmarshal(line, l)
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r') {
		b = b[:len(b)-1]
	}
	return b
}
