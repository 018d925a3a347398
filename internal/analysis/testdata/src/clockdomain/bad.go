package fixture

import (
	"math/rand"
	"time"
)

// advance opts into the simulated-clock domain explicitly.
//
//texlint:clockdomain
func advance() {
	time.Sleep(time.Millisecond) // want "time.Sleep in simulated-clock code"
}

//texlint:clockdomain
func tick() float64 {
	return readClock()
}

// readClock is reached transitively from the annotated root tick.
func readClock() float64 {
	return float64(time.Now().UnixNano()) // want "sim time must flow from the device clock .reached via fixture.tick -> fixture.readClock"
}

// The simulator-package rules: a function in the domain may not stamp
// results with the host's time or draw from the process-global generator.
//
//texlint:clockdomain
func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now in simulated-clock code"
}

//texlint:clockdomain
func globalDraw() float64 {
	return rand.Float64() // want "math/rand.Float64 draws from the global rand source"
}

//texlint:clockdomain
func globalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "math/rand.Shuffle draws from the global rand source"
}
