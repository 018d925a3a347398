//go:build !race

package sift

const raceDetector = false
