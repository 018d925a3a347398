package bench

import "testing"

func TestServingIdentityCheck(t *testing.T) {
	if !servingIdentityCheck(4) {
		t.Fatal("coalesced results diverged from sequential searches at concurrency 4")
	}
}

func TestServingSimLevelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two phantom engines")
	}
	a := servingSimLevel(2)
	b := servingSimLevel(2)
	if a.SerialQPS != b.SerialQPS || a.BatchedQPS != b.BatchedQPS || a.Speedup != b.Speedup {
		t.Fatalf("simulated level not bit-reproducible: %+v vs %+v", a, b)
	}
	if a.Speedup <= 1 {
		t.Fatalf("coalescing two clients should beat the serialized path: speedup %.2fx", a.Speedup)
	}
	if a.MeanBatch != 2 {
		t.Fatalf("lockstep waves of 2 should coalesce fully: mean batch %.2f", a.MeanBatch)
	}
}

func TestQuantileUS(t *testing.T) {
	lat := []float64{5, 1, 3, 2, 4}
	for _, tc := range []struct{ q, want float64 }{
		{0.50, 3}, {0.99, 5}, {0.01, 1}, {1.00, 5},
	} {
		if got := quantileUS(lat, tc.q); got != tc.want {
			t.Errorf("quantileUS(%.2f) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := quantileUS(nil, 0.5); got != 0 {
		t.Errorf("empty sample quantile = %v, want 0", got)
	}
}
