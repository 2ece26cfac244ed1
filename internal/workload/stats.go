package workload

import (
	"zerorefresh/internal/dram"
	"zerorefresh/internal/metrics"
)

// ContentStats reports the zero-value statistics of a generated memory
// image — the measurement behind Figure 6 ("the portion of zeros at 1KB
// and 1Byte granularity" over pages touched by the application).
type ContentStats struct {
	Pages       int
	Bytes       int64
	ZeroBytes   int64
	Blocks1K    int64
	ZeroBlock1K int64
}

// ZeroByteFraction is the 1-byte-granularity series of Figure 6.
func (s ContentStats) ZeroByteFraction() float64 {
	if s.Bytes == 0 {
		return 0
	}
	return float64(s.ZeroBytes) / float64(s.Bytes)
}

// ZeroBlockFraction is the 1-KB-granularity series of Figure 6.
func (s ContentStats) ZeroBlockFraction() float64 {
	if s.Blocks1K == 0 {
		return 0
	}
	return float64(s.ZeroBlock1K) / float64(s.Blocks1K)
}

// Record publishes the content statistics into a metrics registry under
// "workload." names, so experiment drivers can present them alongside the
// hardware counters in one snapshot. Counters accumulate across calls
// (recording several benchmarks sums their footprints); the fraction
// gauges reflect the accumulated totals.
func (s ContentStats) Record(reg *metrics.Registry) {
	reg.Counter("workload.pages").Add(int64(s.Pages))
	reg.Counter("workload.bytes").Add(s.Bytes)
	reg.Counter("workload.zero_bytes").Add(s.ZeroBytes)
	reg.Counter("workload.blocks_1k").Add(s.Blocks1K)
	reg.Counter("workload.zero_blocks_1k").Add(s.ZeroBlock1K)
	snap := reg.Snapshot()
	total := ContentStats{
		Bytes:       snap.Counter("workload.bytes"),
		ZeroBytes:   snap.Counter("workload.zero_bytes"),
		Blocks1K:    snap.Counter("workload.blocks_1k"),
		ZeroBlock1K: snap.Counter("workload.zero_blocks_1k"),
	}
	reg.Gauge("workload.zero_byte_frac").Set(total.ZeroByteFraction())
	reg.Gauge("workload.zero_block_frac").Set(total.ZeroBlockFraction())
}

// MeasureContent generates the first `pages` pages of the profile's
// working-set image and measures its zero statistics. Page size is the
// rank row size (4 KB).
func (p Profile) MeasureContent(seed uint64, pages int) ContentStats {
	var st ContentStats
	st.Pages = pages
	const pageBytes = 4096
	linesPerPage := pageBytes / dram.LineBytes
	g := p.Lines(seed)
	for pg := 0; pg < pages; pg++ {
		blockZero := true
		blockLines := 0
		for ln := 0; ln < linesPerPage; ln++ {
			content := g.Line(uint64(pg*linesPerPage+ln), 0)
			for _, b := range content {
				if b == 0 {
					st.ZeroBytes++
				} else {
					blockZero = false
				}
			}
			st.Bytes += int64(len(content))
			blockLines++
			if blockLines == 1024/dram.LineBytes { // one 1 KB block complete
				st.Blocks1K++
				if blockZero {
					st.ZeroBlock1K++
				}
				blockZero = true
				blockLines = 0
			}
		}
	}
	return st
}

// SuiteContentStats measures every benchmark and returns per-benchmark
// stats plus the unweighted averages, reproducing Figure 6's layout.
func SuiteContentStats(seed uint64, pagesPerBenchmark int) (perBench map[string]ContentStats, avgByte, avgBlock float64) {
	perBench = make(map[string]ContentStats, len(benchmarks))
	for _, b := range benchmarks {
		st := b.MeasureContent(seed, pagesPerBenchmark)
		perBench[b.Name] = st
		avgByte += st.ZeroByteFraction()
		avgBlock += st.ZeroBlockFraction()
	}
	n := float64(len(benchmarks))
	return perBench, avgByte / n, avgBlock / n
}
