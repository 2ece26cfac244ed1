package core

import (
	"fmt"
	"testing"

	"zerorefresh/internal/dram"
	"zerorefresh/internal/workload"
)

// Dense-vs-event window benchmarks at several idle ratios. One op is 200
// retention windows with a write burst before every burstEvery-th window:
// burstEvery 2 leaves half the windows idle, 10 leaves 90% idle, 100
// leaves 99% idle. The dense driver steps every window; the event driver
// schedules the bursts and jumps the idle gaps through the bulk replay.
// The BenchmarkWindowsDense/BenchmarkWindowsEvent ratio at each idle
// ratio is the event core's speedup over the dense loop.

const benchWindowsPerOp = 200

func benchSystem(b *testing.B) (*System, workload.Profile) {
	b.Helper()
	cfg := DefaultConfig(8 << 20)
	cfg.CellGroupRows = 64
	sys, err := NewSystem(cfg)
	if err != nil {
		b.Fatal(err)
	}
	prof, ok := workload.ByName("mcf")
	if !ok {
		b.Fatal("mcf profile missing")
	}
	for p := 0; p < sys.Pages(); p += 4 {
		if err := sys.FillPageFromProfile(prof, p, 7, 0); err != nil {
			b.Fatal(err)
		}
	}
	sys.RunWindow() // learning window: reach the steady-state status table
	return sys, prof
}

func benchBurst(b *testing.B, sys *System, prof workload.Profile, w int) {
	b.Helper()
	for p := 0; p < 4; p++ {
		if err := sys.FillPageFromProfile(prof, p, 7, uint64(w)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func idleRatios() []int { return []int{2, 10, 100} }

func idleName(burstEvery int) string {
	return fmt.Sprintf("idle%d", 100-100/burstEvery)
}

func BenchmarkWindowsDense(b *testing.B) {
	for _, burstEvery := range idleRatios() {
		burstEvery := burstEvery
		b.Run(idleName(burstEvery), func(b *testing.B) {
			sys, prof := benchSystem(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for w := 0; w < benchWindowsPerOp; w++ {
					if w%burstEvery == 0 {
						benchBurst(b, sys, prof, w)
					}
					sys.RunWindow()
				}
			}
		})
	}
}

func BenchmarkWindowsEvent(b *testing.B) {
	for _, burstEvery := range idleRatios() {
		burstEvery := burstEvery
		b.Run(idleName(burstEvery), func(b *testing.B) {
			sys, prof := benchSystem(b)
			tret := sys.DRAM.Config().Timing.TRET
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := sys.Clock
				for w := 0; w < benchWindowsPerOp; w += burstEvery {
					w := w
					sys.ScheduleWriteBurst(base+dram.Time(w)*tret, func(dram.Time) {
						benchBurst(b, sys, prof, w)
					})
				}
				sys.RunUntil(base + benchWindowsPerOp*tret)
			}
		})
	}
}
