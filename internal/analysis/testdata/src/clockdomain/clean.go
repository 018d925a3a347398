package fixture

import (
	"math/rand"
	"time"

	"texid/internal/gpusim"
)

// simNow is the sanctioned pattern: simulated time flows from the device
// clock, never from the host's wall clock.
//
//texlint:clockdomain
func simNow(d *gpusim.Device) float64 {
	return d.Synchronize()
}

// hostBenchmark lives outside the domain (a wall-clock harness measuring
// the simulator itself) and may use time freely.
func hostBenchmark() time.Duration {
	start := time.Now()
	return time.Since(start)
}

// traced shows the escape hatch: a justified ignore on the offending line.
//
//texlint:clockdomain
func traced() int64 {
	return time.Now().UnixNano() //texlint:ignore clockdomain debug tracing stamp, stripped from production builds and never fed back into sim time
}

// A seeded generator threaded explicitly is the sanctioned pattern.
//
//texlint:clockdomain
func seededDraw(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

//texlint:clockdomain
//texlint:ignore clockdomain fixture for the escape hatch: this draw is intentionally unseeded
func suppressedDraw() float64 {
	return rand.Float64()
}
