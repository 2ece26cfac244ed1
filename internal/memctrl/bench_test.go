package memctrl

import (
	"math/rand"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/engine"
	"zerorefresh/internal/transform"
)

// Hot-path microbenchmarks for the controller datapath. The scalar subs
// drive the retained per-chip loops; the batched subs drive the
// line-granular backend calls that replaced them. The raw-codec pairs
// isolate the datapath itself (no transform cost); the pipeline pairs show
// the win in the context of the full encode/decode stack.

func benchController(codec string) *Controller {
	cfg := dram.DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	mod := dram.New(cfg)
	var pipe engine.LineCodec
	if codec == "raw" {
		pipe = transform.Raw{}
	} else {
		pipe = transform.NewPipeline(transform.DefaultOptions(), transform.ExactTypes{Cfg: cfg})
	}
	return NewController(mod, nil, pipe, transform.RotatedMapping{})
}

func benchAddrs(ctrl *Controller, n int) []uint64 {
	rng := rand.New(rand.NewSource(77))
	capacity := uint64(ctrl.Module().Config().Capacity())
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = (uint64(rng.Int63()) * dram.LineBytes) % capacity
	}
	return addrs
}

func benchLines(n int) [][64]byte {
	rng := rand.New(rand.NewSource(78))
	lines := make([][64]byte, n)
	for i := range lines {
		rng.Read(lines[i][:])
	}
	return lines
}

func BenchmarkWriteLine(b *testing.B) {
	const working = 1024
	lines := benchLines(working)
	for _, codec := range []string{"raw", "pipeline"} {
		ctrl := benchController(codec)
		addrs := benchAddrs(ctrl, working)
		b.Run(codec+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % working
				if err := ctrl.writeLineScalar(addrs[k], lines[k], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k := i % working
				if err := ctrl.WriteLine(addrs[k], lines[k], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReadLine(b *testing.B) {
	const working = 1024
	lines := benchLines(working)
	for _, codec := range []string{"raw", "pipeline"} {
		ctrl := benchController(codec)
		addrs := benchAddrs(ctrl, working)
		for k := range addrs {
			if err := ctrl.WriteLine(addrs[k], lines[k], 0); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(codec+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ctrl.readLineScalar(addrs[i%working], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ctrl.ReadLine(addrs[i%working], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWriteZeroRow(b *testing.B) {
	for _, codec := range []string{"raw", "pipeline"} {
		ctrl := benchController(codec)
		addrs := benchAddrs(ctrl, 256)
		b.Run(codec+"/scalar", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ctrl.writeZeroRowScalar(addrs[i%len(addrs)], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(codec+"/batched", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := ctrl.WriteZeroRow(addrs[i%len(addrs)], 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSteadyStateAllocFree pins the controller datapath allocation-free on
// the benchmark fixtures: line writes, line reads and zero-row fills
// through the raw and pipeline codecs, batched and through the scalar
// twins, once every address of the working set has been touched.
func TestSteadyStateAllocFree(t *testing.T) {
	const working = 64
	lines := benchLines(working)
	for _, codec := range []string{"raw", "pipeline"} {
		ctrl := benchController(codec)
		addrs := benchAddrs(ctrl, working)
		k := 0
		next := func() int { k = (k + 1) % working; return k }
		checks := map[string]func() error{
			"WriteLine/batched":    func() error { i := next(); return ctrl.WriteLine(addrs[i], lines[i], 0) },
			"WriteLine/scalar":     func() error { i := next(); return ctrl.writeLineScalar(addrs[i], lines[i], 0) },
			"ReadLine/batched":     func() error { _, err := ctrl.ReadLine(addrs[next()], 0); return err },
			"ReadLine/scalar":      func() error { _, err := ctrl.readLineScalar(addrs[next()], 0); return err },
			"WriteZeroRow/batched": func() error { return ctrl.WriteZeroRow(addrs[next()], 0) },
			"WriteZeroRow/scalar":  func() error { return ctrl.writeZeroRowScalar(addrs[next()], 0) },
		}
		for name, fn := range checks {
			op := func() {
				if err := fn(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < working; i++ {
				op() // warm: materialize every row of the working set
			}
			if n := testing.AllocsPerRun(200, op); n != 0 {
				t.Errorf("%s/%s allocated %.1f times per op", codec, name, n)
			}
		}
	}
}
