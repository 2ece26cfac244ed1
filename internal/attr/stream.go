// Package attr is the offline trace-analytics engine: it loads the
// deterministic event streams the simulator exports (Chrome trace JSON
// from `zrsim -trace` and flight-recorder dumps, NDJSON from `.ndjson`
// exports or captured /trace/tail output) and answers the questions the
// live counters cannot — where the time went (span derivation), where the
// refresh energy went (attribution joined with the Table II power model),
// and at which exact event two runs diverged (first-divergence diff).
//
// The package is a leaf over internal/trace and internal/metrics only, so
// the differential twin tests of dram/memctrl/refresh can use its diff
// helper without import cycles; energy parameters enter as a plain Costs
// value built by the caller (cmd/zrquery derives it from
// energy.PowerParams).
//
// Every renderer in this package is byte-deterministic: integer
// formatting throughout, floats in Go's shortest round-trip form, fixed
// iteration orders. The golden tests pin the exact bytes.
//
// A Chrome document round-trips only times that are non-negative or whole
// microseconds: trace.WriteChrome renders a negative time with a remainder
// the way fmt's "%d.%03d" does (-5 ns as 0.-05), which is not a JSON
// number, so Read rejects the document. A ts in JSON's own negative form
// (-0.005) reads exactly. The simulator's clock starts at 0 and only
// advances, so no export it writes holds a negative time; NDJSON carries
// any time exactly.
package attr

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"zerorefresh/internal/trace"
)

// Stream is one loaded trace: the merged event sequence in (time, shard,
// seq) order as the exporter wrote it, shard labels when the container
// carried them, and the exporter-reported drop count (events the ring
// overwrote before export — attribution over a stream with drops is
// partial, and the reports say so).
type Stream struct {
	Events  []trace.Event
	Labels  map[int32]string
	Dropped uint64
	// Format is the detected container: "chrome" or "ndjson".
	Format string
}

// Label names a shard: the carried label when the stream has one,
// otherwise "shard<N>".
func (s *Stream) Label(shard int32) string {
	if l, ok := s.Labels[shard]; ok && l != "" {
		return l
	}
	return "shard" + strconv.Itoa(int(shard))
}

// Open loads a trace stream from a file.
func Open(path string) (*Stream, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// Read loads a trace stream, detecting the container format: a Chrome
// trace-event document (the object trace.WriteChrome and the flight
// recorder write) or NDJSON (trace.WriteNDJSON / captured /trace/tail).
func Read(r io.Reader) (*Stream, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	head := bytes.TrimLeft(data, " \t\r\n")
	if bytes.HasPrefix(head, []byte(`{"traceEvents"`)) {
		return readChrome(data)
	}
	return readNDJSON(data)
}

func readNDJSON(data []byte) (*Stream, error) {
	events, labels, err := trace.ReadNDJSON(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return &Stream{Events: events, Labels: labels, Format: "ndjson"}, nil
}

// chromeDoc mirrors the exporter's envelope (trace/chrome.go).
type chromeDoc struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	OtherData   struct {
		Dropped uint64 `json:"dropped"`
	} `json:"otherData"`
}

type chromeEvent struct {
	Name string      `json:"name"`
	Ph   string      `json:"ph"`
	Tid  int32       `json:"tid"`
	Ts   json.Number `json:"ts"`
	Args struct {
		Name string `json:"name"`
		Chip int32  `json:"chip"`
		Bank int32  `json:"bank"`
		Row  int32  `json:"row"`
		A    int64  `json:"a"`
		B    int64  `json:"b"`
		Seq  uint64 `json:"seq"`
	} `json:"args"`
}

func readChrome(data []byte) (*Stream, error) {
	var doc chromeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("chrome trace: %v", err)
	}
	s := &Stream{Labels: make(map[int32]string), Dropped: doc.OtherData.Dropped, Format: "chrome"}
	for i, ce := range doc.TraceEvents {
		switch {
		case ce.Ph == "M" && ce.Name == "thread_name":
			s.Labels[ce.Tid] = ce.Args.Name
		case ce.Ph == "i":
			k, ok := trace.KindByName(ce.Name)
			if !ok {
				return nil, fmt.Errorf("chrome trace: event %d: unknown kind %q", i, ce.Name)
			}
			t, err := chromeTsNs(ce.Ts.String())
			if err != nil {
				return nil, fmt.Errorf("chrome trace: event %d: %v", i, err)
			}
			s.Events = append(s.Events, trace.Event{
				Kind: k, Shard: ce.Tid, Time: t,
				Chip: ce.Args.Chip, Bank: ce.Args.Bank, Row: ce.Args.Row,
				A: ce.Args.A, B: ce.Args.B, Seq: ce.Args.Seq,
			})
		}
	}
	return s, nil
}

// chromeTsNs reconstructs the nanosecond timestamp from a Chrome "ts" in
// microseconds with at most three decimals — the exporter writes exactly
// three — with integer arithmetic, so the round trip through Chrome JSON is
// exact. A leading minus sign negates the whole value; a ts finer than a
// nanosecond or beyond the int64 nanosecond range is an error.
func chromeTsNs(ts string) (int64, error) {
	digits, neg := strings.CutPrefix(ts, "-")
	us, frac, _ := strings.Cut(digits, ".")
	u, err := strconv.ParseUint(us, 10, 64)
	if err != nil || u > math.MaxInt64/1000 || len(frac) > 3 {
		return 0, fmt.Errorf("bad ts %q", ts)
	}
	ns := u * 1000
	if frac != "" {
		f, err := strconv.ParseUint(frac, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad ts %q", ts)
		}
		for d := len(frac); d < 3; d++ {
			f *= 10
		}
		ns += f
	}
	if ns > math.MaxInt64 {
		return 0, fmt.Errorf("bad ts %q", ts)
	}
	if neg {
		return -int64(ns), nil
	}
	return int64(ns), nil
}
