package soak

import (
	"math/rand"
	"slices"
	"testing"
)

// TestHistBucketsRoundTrip pins the log-linear bucket math: every value's
// bucket upper edge is >= the value, and edges are monotone.
func TestHistBucketsRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 2, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<40 + 12345}
	for _, v := range vals {
		i := bucketOf(v)
		if hi := bucketHigh(i); hi < v {
			t.Fatalf("value %d: bucket %d upper edge %d below the value", v, i, hi)
		}
		if v > 0 {
			if j := bucketOf(bucketHigh(i) + 1); j <= i {
				t.Fatalf("value %d: bucket %d not closed at its upper edge", v, i)
			}
		}
	}
	prev := int64(-1)
	for i := 0; i < 1<<10; i++ {
		hi := bucketHigh(i)
		if hi <= prev {
			t.Fatalf("bucket %d: edge %d not monotone (prev %d)", i, hi, prev)
		}
		prev = hi
	}
}

// TestHistQuantileError pins the design bound: log-linear quantiles err
// upward by at most 1/2^subBits (~3.2%) plus one unit.
func TestHistQuantileError(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var h hist
	exact := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 50000) // heavy-tailed µs-scale samples
		h.record(v)
		exact = append(exact, v)
	}
	if h.count != 20000 {
		t.Fatalf("count = %d", h.count)
	}
	slices.Sort(exact)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		got := h.quantile(q)
		want := exact[int(q*float64(len(exact)))]
		if got < want {
			t.Fatalf("q=%v: estimate %d below exact %d (quantiles must err upward)", q, got, want)
		}
		if maxAllowed := want + want>>subBits + 1; got > maxAllowed {
			t.Fatalf("q=%v: estimate %d exceeds error bound %d (exact %d)", q, got, maxAllowed, want)
		}
	}
	if h.quantile(1) != h.max {
		t.Fatalf("q=1 returned %d, want exact max %d", h.quantile(1), h.max)
	}
}
