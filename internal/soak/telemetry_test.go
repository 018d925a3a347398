package soak

import (
	"testing"
	"time"
)

// sink keeps the garbage below from being optimized away.
var sink []byte

// TestTelemetryHeapPeakSkipsEarlierGarbage: a scenario's heap peak counts
// what is live while it runs, not garbage an earlier scenario left
// unswept.
func TestTelemetryHeapPeakSkipsEarlierGarbage(t *testing.T) {
	const garbageMB = 64
	sink = make([]byte, garbageMB<<20)
	for i := range sink {
		sink[i] = byte(i)
	}
	sink = nil
	g := startTelemetry(time.Hour).stop()
	if g.HeapPeakMB >= garbageMB {
		t.Fatalf("heap peak %.1f MiB counts the %d MiB dropped before the scenario started", g.HeapPeakMB, garbageMB)
	}
}
