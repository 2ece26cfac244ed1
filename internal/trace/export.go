package trace

import (
	"cmp"
	"io"
	"runtime"
	"slices"
	"sync"
)

// Events merges every shard's held events into one deterministic order:
// ascending (Time, Shard, Seq). The order is independent of how the rank
// shards were scheduled, so exports are bit-identical for a fixed seed.
func (t *Tracer) Events() []Event { return mergeShards(t.Shards()) }

// mergeShards returns the events the shards hold, in ascending
// (Time, Shard, Seq) order. Each shard's held run is copied once, under
// its lock, into a result sized for all of them, and the copy is sorted
// only when it is out of order. A single-rank system's trace is in order
// already: its cpu shard's events all sit at time 0 and its rank shard
// emits in time order. A trace of several ranks or units, each starting
// at time 0, is sorted.
func mergeShards(shards []*Shard) []Event {
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	// A shard that emits between the count and the copy grows out past
	// the size; append then reallocates, and the result is still whole.
	out := make([]Event, 0, total)
	for _, s := range shards {
		s.mu.Lock()
		older, newer := s.held()
		out = append(append(out, older...), newer...)
		s.mu.Unlock()
	}
	if !slices.IsSortedFunc(out, cmpEvent) {
		slices.SortFunc(out, cmpEvent)
	}
	return out
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

// writeBlocks writes head, every event encoded by enc, and tail to w. The
// events are cut into blocks of blockEvents; head opens the first block and
// tail closes the last, so an export of one block (or of no events) is one
// Write. The blocks are encoded on GOMAXPROCS goroutines, at most
// maxEncoders, and written here in order. The first write error stops the
// encoders and is returned once they have exited.
func writeBlocks(w io.Writer, head []byte, events []Event, enc func([]byte, Event) []byte, tail []byte) error {
	blocks := max(1, (len(events)+blockEvents-1)/blockEvents)
	encode := func(dst []byte, b int) []byte {
		if b == 0 {
			dst = append(dst, head...)
		}
		for _, e := range events[b*blockEvents : min((b+1)*blockEvents, len(events))] {
			dst = enc(dst, e)
		}
		if b == blocks-1 {
			dst = append(dst, tail...)
		}
		return dst
	}
	// Size a buffer for a block of events as long as the first with room
	// to spare, so that it seldom grows.
	size := len(head) + len(tail)
	if len(events) > 0 {
		size += min(len(events), blockEvents) * (len(enc(nil, events[0])) + 16)
	}
	workers := min(runtime.GOMAXPROCS(0), maxEncoders, blocks)
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
			for b := k; b < blocks; b += workers {
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
	for b := range blocks {
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
