package trace

import (
	"cmp"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
)

// Events merges every shard's held events into one deterministic order:
// ascending (Time, Shard, Seq). The order is independent of how the rank
// shards were scheduled, so exports are bit-identical for a fixed seed.
func (t *Tracer) Events() []Event { return slices.Concat(mergeShards(t.Shards())...) }

// mergeShards returns the events the shards hold, in ascending
// (Time, Shard, Seq) order, as export blocks of at most blockEvents events.
// When the shards are in order already (see inOrder), the blocks are their
// chunks' held runs, aliasing the rings: nothing is copied or compared. A
// single-rank system's trace is: its cpu shard's events all sit at time 0
// and its rank shard emits in time order. Any other trace, such as one of
// several ranks or units that each start at time 0, is copied once, sorted
// and cut into blocks.
func mergeShards(shards []*Shard) [][]Event {
	var runs [][]Event
	for _, s := range shards {
		runs = s.appendRuns(runs)
	}
	if inOrder(shards) {
		return runs
	}
	all := slices.Concat(runs...)
	slices.SortFunc(all, cmpEvent)
	var blocks [][]Event
	for len(all) > 0 {
		n := min(len(all), blockEvents)
		blocks = append(blocks, all[:n:n])
		all = all[n:]
	}
	return blocks
}

// inOrder reports whether the shards' held runs, laid end to end, are in
// (Time, Shard, Seq) order: no shard ever emitted a time below its previous
// event's, and each non-empty shard's oldest event is no earlier than the
// previous non-empty shard's newest. A tracer's shards come in id order,
// so a time shared across two shards is in order too.
func inOrder(shards []*Shard) bool {
	newest := int64(math.MinInt64)
	for _, s := range shards {
		if s.Len() == 0 {
			continue
		}
		if s.unordered || s.at(s.oldest()).Time < newest {
			return false
		}
		newest = s.last
	}
	return true
}

// cmpEvent orders events by (Time, Shard, Seq). No two events of a
// tracer share a shard and a sequence number, so the order is total and
// an unstable sort by it is deterministic.
func cmpEvent(a, b Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Shard, b.Shard); c != 0 {
		return c
	}
	return cmp.Compare(a.Seq, b.Seq)
}

// blockEvents is the number of events one export block encodes: about
// 1 MB of NDJSON or 1.1 MB of Chrome JSON, enough that encoding a block
// dwarfs handing it between goroutines.
const blockEvents = 8192

// maxEncoders caps the goroutines that encode blocks. Each has two block
// buffers, so an export holds at most eight, about 10 MB, however many
// cores there are.
const maxEncoders = 4

// writeBlocks writes head, every event of blocks encoded by enc, and tail
// to w. head opens the first block and tail closes the last, so an export
// of one block (or of no events) is one Write. The blocks are encoded on
// GOMAXPROCS goroutines, at most maxEncoders, and written here in order.
// The first write error stops the encoders and is returned once they have
// exited.
func writeBlocks(w io.Writer, head []byte, blocks [][]Event, enc func([]byte, Event) []byte, tail []byte) error {
	n := max(1, len(blocks))
	encode := func(dst []byte, b int) []byte {
		if b == 0 {
			dst = append(dst, head...)
		}
		if b < len(blocks) {
			for _, e := range blocks[b] {
				dst = enc(dst, e)
			}
		}
		if b == n-1 {
			dst = append(dst, tail...)
		}
		return dst
	}
	// Size a buffer for the longest block of events like the first, with
	// room to spare, so that it seldom grows.
	size := len(head) + len(tail)
	if len(blocks) > 0 {
		longest := 0
		for _, b := range blocks {
			longest = max(longest, len(b))
		}
		size += longest * (len(enc(nil, blocks[0][0])) + 16)
	}
	workers := min(runtime.GOMAXPROCS(0), maxEncoders, n)
	// Block b travels through slot b%len(slots): its encoder takes the
	// slot's buffer from free, fills it and hands it on through full, and
	// the writer returns it to free once written. Worker k encodes blocks
	// k, k+workers, ...; since len(slots) is a multiple of workers, one
	// worker owns every block of a slot and takes its buffer in block
	// order, so full always yields the block the writer expects.
	type slot struct{ free, full chan []byte }
	slots := make([]slot, 2*workers)
	for i := range slots {
		slots[i] = slot{free: make(chan []byte, 1), full: make(chan []byte, 1)}
		slots[i].free <- nil
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := k; b < n; b += workers {
				s := slots[b%len(slots)]
				var buf []byte
				select {
				case buf = <-s.free:
				case <-stop:
					return
				}
				s.full <- encode(slices.Grow(buf, size), b)
			}
		}()
	}
	var err error
	for b := range n {
		s := slots[b%len(slots)]
		buf := <-s.full
		if _, err = w.Write(buf); err != nil {
			break
		}
		s.free <- buf[:0]
	}
	close(stop)
	wg.Wait()
	return err
}
