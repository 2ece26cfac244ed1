// Package proptest seeds the repository's testing/quick properties. Every
// quick.Check takes its Config from Config, which draws the cases from a
// source seeded by -quickseed (default 1), so a tier-1 run checks the same
// cases every time and a failure reproduces from the seed it logs. Pass
// another seed to explore other cases:
//
//	go test -run Quick ./internal/core -quickseed=7
//
// Only test files import this package; the flag exists in test binaries.
package proptest

import (
	"flag"
	"math/rand"
	"testing"
	"testing/quick"
)

// seed is the source seed of every property's cases.
var seed = flag.Int64("quickseed", 1, "seed of the testing/quick properties' case source")

// Config returns the configuration of one quick.Check: maxCount cases
// (quick's default when 0) drawn from a source seeded by -quickseed. It
// logs the seed.
func Config(t testing.TB, maxCount int) *quick.Config {
	t.Helper()
	t.Logf("quick cases from -quickseed=%d", *seed)
	//zr:allow(determinism) the source is seeded from -quickseed, so the cases are fixed
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(*seed))}
}
