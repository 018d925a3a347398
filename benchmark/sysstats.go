package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// processCPU is user+system CPU time consumed by this process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cpu_util then reads 0, which no real run produces
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// watchHeap samples live heap bytes every 50 ms until stop closes and
// returns the highest value seen. runtime/metrics reads do not stop the
// world, unlike ReadMemStats.
func watchHeap(stop <-chan struct{}) uint64 {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	var peak uint64
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		metrics.Read(sample)
		if sample[0].Value.Kind() == metrics.KindUint64 && sample[0].Value.Uint64() > peak {
			peak = sample[0].Value.Uint64()
		}
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
	}
}
