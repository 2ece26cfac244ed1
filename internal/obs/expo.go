// Package obs is the live introspection plane of the simulator: an
// embeddable, stdlib-only HTTP surface that exposes what a running
// simulation is doing — metrics exposition in Prometheus text and JSON,
// a lock-free progress board, a streaming NDJSON event tail, a flight
// recorder over the trace stream, and threshold watchdogs — without
// perturbing the simulation it observes.
//
// The package sits strictly above the simulation layers: it imports
// core, metrics, trace and engine, and it is the only internal package
// allowed to import net/http (the zrlint layerpurity analyzer enforces
// this). Everything it renders is byte-deterministic for a fixed
// snapshot: the exposition writers below are hand-rolled rather than
// reflection-driven precisely so two same-seed runs serve identical
// bodies, which the golden tests and the CI smoke job pin.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"zerorefresh/internal/metrics"
	"zerorefresh/internal/trace"
)

// splitSample splits a snapshot sample name into its shard prefix (the
// Attach path, "" for top-level samples) and the metric leaf name:
// "rank0/refresh.steps_skipped" → ("rank0", "refresh.steps_skipped").
func splitSample(name string) (shard, metric string) {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[:i], name[i+1:]
	}
	return "", name
}

// promName converts a metric leaf name into a Prometheus metric name:
// "zr_" + the name with every character outside [a-zA-Z0-9_] replaced by
// '_' ("refresh.steps_skipped" → "zr_refresh_steps_skipped").
func promName(metric string) string {
	var b strings.Builder
	b.Grow(len(metric) + 3)
	b.WriteString("zr_")
	for i := 0; i < len(metric); i++ {
		c := metric[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double-quote and newline are escaped, everything
// else passes through.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// promFloat renders a float64 the way the Prometheus text format expects:
// shortest round-trip representation, with NaN and the infinities named.
func promFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// family is one exposition family: every sample across shards that shares
// a metric leaf name, rendered under one # TYPE header.
type family struct {
	name    string // Prometheus name ("zr_refresh_steps_skipped")
	kind    metrics.Kind
	samples []shardSample
}

type shardSample struct {
	shard string
	smp   metrics.Sample
}

// families groups a snapshot by metric leaf name, sorted by Prometheus
// family name (ties broken by raw leaf name) with each family's shards in
// label order. The grouping is pure — determinism follows from the sort.
func families(snap metrics.Snapshot) []family {
	byName := make(map[string]*family)
	var order []string
	for _, smp := range snap.Samples {
		shard, metric := splitSample(smp.Name)
		key := promName(metric)
		f, ok := byName[key]
		if !ok {
			f = &family{name: key, kind: smp.Kind}
			byName[key] = f
			order = append(order, key)
		}
		f.samples = append(f.samples, shardSample{shard: shard, smp: smp})
	}
	sort.Strings(order)
	out := make([]family, 0, len(order))
	for _, key := range order {
		f := byName[key]
		sort.SliceStable(f.samples, func(i, j int) bool { return f.samples[i].shard < f.samples[j].shard })
		out = append(out, *f)
	}
	return out
}

// shardLabel renders the label block for a shard ("" → no labels).
func shardLabel(shard string) string {
	if shard == "" {
		return ""
	}
	return `{shard="` + escapeLabel(shard) + `"}`
}

// shardLabelWith renders a label block carrying the shard label (when
// non-empty) plus one extra label — the histogram le= form.
func shardLabelWith(shard, key, val string) string {
	if shard == "" {
		return "{" + key + `="` + escapeLabel(val) + `"}`
	}
	return `{shard="` + escapeLabel(shard) + `",` + key + `="` + escapeLabel(val) + `"}`
}

// bucketEdge returns the inclusive upper edge of power-of-two bucket b as
// the le= label value: bucket 0 holds v <= 0, bucket b >= 1 holds
// v in [2^(b-1), 2^b), whose largest integer member is 2^b - 1.
func bucketEdge(b int) string {
	if b == 0 {
		return "0"
	}
	return strconv.FormatUint(uint64(1)<<b-1, 10)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4). Rendering is byte-deterministic for a given
// snapshot: families sort by name, shards sort within a family, and all
// numbers use shortest-round-trip formatting. Counters keep their raw
// registry semantics (no _total suffix is appended); power-of-two
// histogram buckets become cumulative le= buckets with integer edges.
func WritePrometheus(w io.Writer, snap metrics.Snapshot) error {
	var b strings.Builder
	for _, f := range families(snap) {
		switch f.kind {
		case metrics.KindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n", f.name)
			for _, s := range f.samples {
				fmt.Fprintf(&b, "%s%s %d\n", f.name, shardLabel(s.shard), s.smp.Int)
			}
		case metrics.KindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", f.name)
			for _, s := range f.samples {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, shardLabel(s.shard), promFloat(s.smp.Float))
			}
		case metrics.KindHistogram:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", f.name)
			for _, s := range f.samples {
				var cum int64
				for i, c := range s.smp.Buckets {
					cum += c
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, shardLabelWith(s.shard, "le", bucketEdge(i)), cum)
				}
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, shardLabelWith(s.shard, "le", "+Inf"), s.smp.Int)
				fmt.Fprintf(&b, "%s_sum%s %d\n", f.name, shardLabel(s.shard), s.smp.Sum)
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, shardLabel(s.shard), s.smp.Int)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteMetricsJSON renders the snapshot as deterministic JSON: one object
// per sample in snapshot (registration) order, each carrying its full
// name, shard/metric split, kind, and kind-specific values. Histograms
// include the raw power-of-two bucket counts plus derived mean/p50/p99 so
// scripted consumers need not reimplement the bucket algebra.
func WriteMetricsJSON(w io.Writer, snap metrics.Snapshot) error {
	var b strings.Builder
	b.WriteString("{\"samples\":[")
	for i, smp := range snap.Samples {
		if i > 0 {
			b.WriteByte(',')
		}
		shard, metric := splitSample(smp.Name)
		b.WriteString("{\"name\":")
		b.WriteString(trace.JSONString(smp.Name))
		if shard != "" {
			b.WriteString(",\"shard\":")
			b.WriteString(trace.JSONString(shard))
		}
		b.WriteString(",\"metric\":")
		b.WriteString(trace.JSONString(metric))
		switch smp.Kind {
		case metrics.KindCounter:
			fmt.Fprintf(&b, ",\"kind\":\"counter\",\"value\":%d", smp.Int)
		case metrics.KindGauge:
			b.WriteString(",\"kind\":\"gauge\",\"value\":")
			b.WriteString(trace.JSONFloat(smp.Float))
		case metrics.KindHistogram:
			fmt.Fprintf(&b, ",\"kind\":\"histogram\",\"count\":%d,\"sum\":%d", smp.Int, smp.Sum)
			b.WriteString(",\"mean\":")
			b.WriteString(trace.JSONFloat(smp.Mean()))
			b.WriteString(",\"p50\":")
			b.WriteString(trace.JSONFloat(smp.Quantile(0.50)))
			b.WriteString(",\"p99\":")
			b.WriteString(trace.JSONFloat(smp.Quantile(0.99)))
			b.WriteString(",\"buckets\":[")
			for j, c := range smp.Buckets {
				if j > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%d", c)
			}
			b.WriteString("]")
		}
		b.WriteByte('}')
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
