package binq

import (
	"math/bits"
	"math/rand"
	"runtime"
	"testing"

	"texid/internal/blas"
)

func randMat(rng *rand.Rand, d, n int) *blas.Matrix {
	m := blas.NewMatrix(d, n)
	for i := range m.Data {
		m.Data[i] = rng.Float32()
	}
	return m
}

func TestLearnEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mats := []*blas.Matrix{randMat(rng, 128, 40), randMat(rng, 128, 40)}
	th := LearnThresholds(mats)
	if len(th) != 128 {
		t.Fatalf("thresholds len %d, want 128", len(th))
	}
	codes := th.Encode(mats[0], nil)
	if len(codes) != 40 {
		t.Fatalf("encoded %d codes, want 40", len(codes))
	}
	// Bit i must equal (value > threshold) exactly.
	for j := 0; j < mats[0].Cols; j++ {
		col := mats[0].Col(j)
		for i, v := range col {
			want := v > th[i]
			got := codes[j][i>>6]&(1<<(uint(i)&63)) != 0
			if got != want {
				t.Fatalf("code %d bit %d = %v, want %v", j, i, got, want)
			}
		}
	}
	// A descriptor is at Hamming distance 0 from its own code.
	self := th.Encode(mats[0], nil)
	for j := range codes {
		if Hamming(codes[j], self[j]) != 0 {
			t.Fatalf("self-distance of code %d nonzero", j)
		}
	}
}

func TestHamming(t *testing.T) {
	a := Code{0, 0}
	b := Code{^uint64(0), ^uint64(0)}
	if got := Hamming(a, b); got != 128 {
		t.Fatalf("Hamming(all-zero, all-one) = %d, want 128", got)
	}
	if got := Hamming(b, b); got != 0 {
		t.Fatalf("Hamming(x, x) = %d, want 0", got)
	}
	if got := Hamming(Code{0b1011, 0}, Code{0b0001, 1 << 63}); got != 3 {
		t.Fatalf("Hamming = %d, want 3", got)
	}
}

// scanRef is the scalar oracle for Scanner.Scan.
func scanRef(panel []Code, m int, probes []Code) []uint32 {
	scores := make([]uint32, len(panel)/m)
	for img := range scores {
		var sum uint32
		for _, p := range probes {
			minD := MaxDim + 1
			for _, c := range panel[img*m : (img+1)*m] {
				if d := Hamming(p, c); d < minD {
					minD = d
				}
			}
			sum += uint32(minD)
		}
		scores[img] = sum
	}
	return scores
}

func TestScanMinMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const m, images, nProbes = 24, 37, 16
	panel := make([]Code, m*images)
	for i := range panel {
		panel[i] = Code{rng.Uint64(), rng.Uint64()}
	}
	probes := make([]Code, nProbes)
	for i := range probes {
		probes[i] = Code{rng.Uint64(), rng.Uint64()}
	}
	want := scanRef(panel, m, probes)
	got := make([]uint32, images)
	new(Scanner).Scan(panel, m, probes, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestScanMinDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m, images, nProbes = 48, 64, 32
	panel := make([]Code, m*images)
	for i := range panel {
		panel[i] = Code{rng.Uint64(), rng.Uint64()}
	}
	probes := make([]Code, nProbes)
	for i := range probes {
		probes[i] = Code{rng.Uint64(), rng.Uint64()}
	}
	var runs [][]uint32
	for _, procs := range []int{1, 4, 1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		scores := make([]uint32, images)
		new(Scanner).Scan(panel, m, probes, scores)
		runtime.GOMAXPROCS(prev)
		runs = append(runs, scores)
	}
	for r := 1; r < len(runs); r++ {
		for i := range runs[0] {
			if runs[r][i] != runs[0][i] {
				t.Fatalf("run %d score[%d] = %d, differs from run 0's %d", r, i, runs[r][i], runs[0][i])
			}
		}
	}
}

// TestScanMinZeroAlloc pins the warm scan at 0 allocs/op — the alloc guard
// for the prefilter hot path.
func TestScanMinZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const m, images, nProbes = 64, 32, 16
	panel := make([]Code, m*images)
	for i := range panel {
		panel[i] = Code{rng.Uint64(), rng.Uint64()}
	}
	probes := make([]Code, nProbes)
	for i := range probes {
		probes[i] = Code{rng.Uint64(), rng.Uint64()}
	}
	scores := make([]uint32, images)
	var sc Scanner
	sc.Scan(panel, m, probes, scores) // warm the worker pool and bind the closure
	allocs := testing.AllocsPerRun(20, func() {
		sc.Scan(panel, m, probes, scores)
	})
	if allocs != 0 {
		t.Fatalf("warm Scan allocates %.1f times per op, want 0", allocs)
	}
}

// TestScanTiersMatch runs the native VPOPCNTQ scan (through Scanner.Scan, at
// GOMAXPROCS 1 and 4) against ScanPortable, the scalar reference, on the
// same operands in-process: every m in 1…17 and 383…385, probe counts 0…9,
// 63…65 and 127…129 (so every remainder of the eight-probe lane group and
// of the 64-probe chunk, and more than one chunk), 1…40 images, and
// random, all-zero and all-one codes with probes copied from the panel, so
// distances 0 and 128 both occur.
// Skips where the host lacks the native tier; scripts/check.sh runs it with
// -v, so the log says which.
func TestScanTiersMatch(t *testing.T) {
	if !useVPOPCNTQ {
		t.Skip("no AVX-512 VPOPCNTQ tier on this host/build")
	}
	ms := []int{383, 384, 385}
	for m := 1; m <= 17; m++ {
		ms = append(ms, m)
	}
	var zero, full int
	var sc Scanner
	rng := rand.New(rand.NewSource(6))
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, m := range ms {
			for _, nProbes := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 127, 128, 129} {
				images := 1 + rng.Intn(40)
				panel := make([]Code, m*images)
				for i := range panel {
					switch rng.Intn(4) {
					case 0:
						panel[i] = Code{}
					case 1:
						panel[i] = Code{^uint64(0), ^uint64(0)}
					default:
						panel[i] = Code{rng.Uint64(), rng.Uint64()}
					}
				}
				probes := make([]Code, nProbes)
				for i := range probes {
					switch rng.Intn(4) {
					case 0:
						probes[i] = panel[rng.Intn(len(panel))]
					case 1:
						probes[i] = Code{}
					case 2:
						probes[i] = Code{^uint64(0), ^uint64(0)}
					default:
						probes[i] = Code{rng.Uint64(), rng.Uint64()}
					}
				}
				got, want := make([]uint32, images), make([]uint32, images)
				sc.Scan(panel, m, probes, got)
				ScanPortable(panel, m, probes, want)
				for i := range want {
					if got[i] != want[i] {
						runtime.GOMAXPROCS(prev)
						t.Fatalf("GOMAXPROCS=%d m=%d probes=%d images=%d: native score[%d] = %d, scalar %d",
							procs, m, nProbes, images, i, got[i], want[i])
					}
				}
				for _, p := range probes {
					for _, c := range panel {
						switch Hamming(p, c) {
						case 0:
							zero++
						case MaxDim:
							full++
						}
					}
				}
			}
		}
		runtime.GOMAXPROCS(prev)
	}
	if zero == 0 || full == 0 {
		t.Fatalf("distances 0 occurred %d times and 128 %d times; both must occur", zero, full)
	}
	t.Logf("tiers agree; distance 0 occurred %d times, 128 %d times", zero, full)
}

func TestTopCSelection(t *testing.T) {
	scores := []uint32{9, 3, 7, 3, 1, 8, 3}
	var sel TopC
	sel.Reset(3)
	for i, s := range scores {
		sel.Offer(int32(i), s)
	}
	got := sel.AppendSorted(nil)
	// Best three: score 1 (idx 4), then the score-3 ties resolved toward
	// the smaller indices 1 and 3. Sorted ascending by index: 1, 3, 4.
	want := []int32{1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("selected %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selected %v, want %v", got, want)
		}
	}
}

func TestTopCFewerThanC(t *testing.T) {
	var sel TopC
	sel.Reset(10)
	sel.Offer(0, 5)
	sel.Offer(1, 2)
	got := sel.AppendSorted(nil)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("selected %v, want [0 1]", got)
	}
}

func TestTopCZeroAllocWarm(t *testing.T) {
	var sel TopC
	sel.Reset(16)
	dst := make([]int32, 0, 16)
	allocs := testing.AllocsPerRun(20, func() {
		sel.Reset(16)
		for i := 0; i < 1000; i++ {
			sel.Offer(int32(i), uint32(i*2654435761)%997)
		}
		dst = sel.AppendSorted(dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("warm TopC allocates %.1f times per op, want 0", allocs)
	}
	if len(dst) != 16 {
		t.Fatalf("selected %d, want 16", len(dst))
	}
}

// TestTopCMatchesSort cross-checks the heap selection against a full sort
// on random scores.
func TestTopCMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		c := 1 + rng.Intn(20)
		scores := make([]uint32, n)
		for i := range scores {
			scores[i] = uint32(rng.Intn(12)) // small range forces ties
		}
		var sel TopC
		sel.Reset(c)
		for i, s := range scores {
			sel.Offer(int32(i), s)
		}
		got := sel.AppendSorted(nil)

		// Oracle: stable selection by (score, index).
		type ent struct {
			s uint32
			i int32
		}
		all := make([]ent, n)
		for i, s := range scores {
			all[i] = ent{s, int32(i)}
		}
		for i := 1; i < n; i++ { // insertion sort by (score, idx)
			v := all[i]
			j := i - 1
			for j >= 0 && (all[j].s > v.s || (all[j].s == v.s && all[j].i > v.i)) {
				all[j+1] = all[j]
				j--
			}
			all[j+1] = v
		}
		keep := c
		if keep > n {
			keep = n
		}
		want := make([]int32, 0, keep)
		for _, e := range all[:keep] {
			want = append(want, e.i)
		}
		for i := 1; i < len(want); i++ { // sort ascending by index
			v := want[i]
			j := i - 1
			for j >= 0 && want[j] > v {
				want[j+1] = want[j]
				j--
			}
			want[j+1] = v
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: selected %v, want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: selected %v, want %v", trial, got, want)
			}
		}
	}
}

// FuzzScanTiers is TestScanTiersMatch over every input: Scanner.Scan on the
// host's tier (AVX-512 VPOPCNTQ where present) against the scalar scan,
// ScanPortable, in process and bit for bit. shape picks m (1…512 codes per
// image, bits 0–8), the probe count (0…136, bits 9–16, so two full 64-probe
// chunks and a partial lane group), the image count (1…40, bits 17–22) and
// GOMAXPROCS 1 or 4 (bit 23); the scan runs twice through one Scanner, on
// every probe and then on the first three quarters of them. data draws the
// codes, panel first, then probes: each code takes
// one kind byte — zero, all ones, a copy of an earlier panel code (so
// distances 0 and 128 occur), or 16 literal bytes — and data wraps around
// when it runs out. Shapes are capped so one input runs in milliseconds.
// The seed corpus under testdata/fuzz is the table test's shapes.
func FuzzScanTiers(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint64, data []byte) {
		m := 1 + int(shape%512)
		nProbes := int(shape>>9&255) % 137
		images := 1 + int(shape>>17&63)%40
		procs := 1 + 3*int(shape>>23&1)
		pos := 0
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[pos%len(data)]
			pos++
			return b
		}
		draw := func(panel []Code) Code {
			switch kind := next(); kind % 4 {
			case 0:
				return Code{}
			case 1:
				return Code{^uint64(0), ^uint64(0)}
			case 2:
				if len(panel) > 0 {
					return panel[int(next())*len(panel)/256]
				}
			}
			var c Code
			for i := range 16 {
				c[i/8] |= uint64(next()) << (8 * (i % 8))
			}
			return c
		}
		panel := make([]Code, 0, m*images)
		for range m * images {
			panel = append(panel, draw(panel))
		}
		probes := make([]Code, nProbes)
		for i := range probes {
			probes[i] = draw(panel)
		}
		got, want := make([]uint32, images), make([]uint32, images)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var sc Scanner
		// The whole probe set, then a shorter prefix through the same
		// Scanner, so a lane the longer scan left behind would show.
		for _, n := range []int{nProbes, nProbes * 3 / 4} {
			sc.Scan(panel, m, probes[:n], got)
			ScanPortable(panel, m, probes[:n], want)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("GOMAXPROCS=%d m=%d probes=%d of %d images=%d: Scan score[%d] = %d, scalar %d",
						procs, m, n, nProbes, images, i, got[i], want[i])
				}
			}
		}
	})
}

// Hamming returns the Hamming distance between two codes.
func Hamming(a, b Code) int {
	return bits.OnesCount64(a[0]^b[0]) + bits.OnesCount64(a[1]^b[1])
}
