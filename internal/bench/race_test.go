//go:build race

package bench

// raceDetector says whether this test binary was built with -race, whose
// instrumentation adds allocations to the probe rows.
const raceDetector = true
