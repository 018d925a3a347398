//go:build race

package sift

// raceDetector says whether this test binary was built with -race, under
// which sync.Pool drops a quarter of its Puts on purpose.
const raceDetector = true
