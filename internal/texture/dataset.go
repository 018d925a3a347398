package texture

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
)

// Dataset is a ground-truthed identification benchmark: Refs[i] is the
// reference image of texture identity i, and Queries[q] is a perturbed
// re-capture of Refs[Truth[q]]. This mirrors the tea-brick dataset's
// structure (references enrolled by the manufacturer, queries captured by
// customers).
type Dataset struct {
	Refs    []*Image
	Queries []*Image
	Truth   []int
	Params  GenParams
}

// BuildDataset generates numRefs reference textures and numQueries query
// re-captures at the given difficulty, deterministically from seed.
// Reference identities are assigned to queries round-robin so every
// reference is queried as evenly as possible. Generation is parallelized
// across CPUs.
func BuildDataset(seed int64, numRefs, numQueries int, difficulty float64, p GenParams) *Dataset {
	if numRefs <= 0 {
		panic(fmt.Sprintf("texture: numRefs = %d", numRefs))
	}
	ds := &Dataset{
		Refs:    make([]*Image, numRefs),
		Queries: make([]*Image, numQueries),
		Truth:   make([]int, numQueries),
		Params:  p,
	}

	parallelFor(numRefs, func(i int) {
		ds.Refs[i] = Generate(seed+int64(i)*1_000_003, p)
	})

	// The perturbation stream is fully drawn before the parallel section,
	// so worker scheduling cannot perturb the output.
	rng := rand.New(rand.NewSource(seed ^ 0x7F4A7C15))
	perts := make([]Perturbation, numQueries)
	for q := 0; q < numQueries; q++ {
		ds.Truth[q] = q % numRefs
		perts[q] = RandomPerturbation(rng, difficulty)
	}
	parallelFor(numQueries, func(q int) {
		ds.Queries[q] = perts[q].Apply(ds.Refs[ds.Truth[q]])
	})
	return ds
}

// parallelFor runs fn(i) for i in [0, n) across GOMAXPROCS goroutines.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
