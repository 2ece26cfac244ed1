package sim

import (
	"zerorefresh/internal/engine"
	"zerorefresh/internal/trace"
)

// forEach runs fn(i, uo) for i in [0,n) on up to GOMAXPROCS workers and
// returns the first error. Every experiment unit (one benchmark under one
// configuration) is an independent, deterministically seeded simulation,
// so parallel execution is bit-identical to sequential — results are
// written into index i of preallocated slices, never shared.
//
// uo is the unit's copy of o. When o traces, it carries a private tracer
// with o.Trace's shard capacity instead, and after the fan-out o.Trace
// adopts the units' shards in unit order. Shard ids, and with them the
// exported (Time, Shard, Seq) order, so follow the units rather than the
// order in which the scheduler happened to start them.
//
// It delegates to engine.ForEach, the one worker pool the repository uses
// for both experiment fan-out and rank sharding. A panic inside fn does
// not kill the process: it is recovered in the worker and surfaces as a
// *engine.PanicError carrying the item index and stack, so a crash in one
// benchmark run names the unit that caused it instead of taking down the
// whole sweep.
func forEach(o Options, n int, fn func(i int, uo Options) error) error {
	if o.Trace == nil {
		return engine.ForEach(n, func(i int) error { return fn(i, o) })
	}
	units := make([]*trace.Tracer, n)
	for i := range units {
		units[i] = trace.New(o.Trace.ShardCap())
	}
	err := engine.ForEach(n, func(i int) error {
		uo := o
		uo.Trace = units[i]
		return fn(i, uo)
	})
	for _, tr := range units {
		o.Trace.Adopt(tr)
	}
	return err
}
