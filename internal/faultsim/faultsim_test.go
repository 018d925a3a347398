package faultsim

import (
	"errors"
	"sync"
	"testing"
)

// drawSequence records the first n decisions a fresh injector hands the
// named peer.
func drawSequence(plan Plan, peer string, n int) []Decision {
	p := New(plan).Peer(peer)
	out := make([]Decision, n)
	for i := range out {
		out[i] = p.Next("search", 0)
	}
	return out
}

func TestDecisionsDeterministic(t *testing.T) {
	plan := Plan{Seed: 7, DropRate: 0.2, HangRate: 0.1, ReplyLossRate: 0.1, SlowRate: 0.3, SlowUS: 1000}
	a := drawSequence(plan, "worker-0", 200)
	b := drawSequence(plan, "worker-0", 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across runs: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must change the stream (overwhelmingly likely over
	// 200 draws at these rates).
	c := drawSequence(Plan{Seed: 8, DropRate: 0.2, HangRate: 0.1, ReplyLossRate: 0.1, SlowRate: 0.3, SlowUS: 1000}, "worker-0", 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed change did not alter the decision stream")
	}
}

// TestPerPeerStreamsIndependent verifies the property the chaos suite's
// GOMAXPROCS sweep relies on: a peer's decision stream depends only on its
// own call count, not on how calls to other peers interleave.
func TestPerPeerStreamsIndependent(t *testing.T) {
	plan := Plan{Seed: 3, DropRate: 0.25, SlowRate: 0.25, SlowUS: 500}

	solo := drawSequence(plan, "worker-1", 100)

	// Same peer, but its calls now race calls to nine other peers.
	in := New(plan)
	var wg sync.WaitGroup
	for g := 0; g < 9; g++ {
		name := "noise-" + string(rune('a'+g))
		p := in.Peer(name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				p.Next("search", 0)
			}
		}()
	}
	p := in.Peer("worker-1")
	interleaved := make([]Decision, 100)
	for i := range interleaved {
		interleaved[i] = p.Next("search", 0)
	}
	wg.Wait()

	for i := range solo {
		if solo[i] != interleaved[i] {
			t.Fatalf("decision %d changed under interleaving: %+v vs %+v", i, solo[i], interleaved[i])
		}
	}
}

func TestRateExtremes(t *testing.T) {
	p := New(Plan{Seed: 1}).Peer("w")
	for i := 0; i < 100; i++ {
		if d := p.Next("op", 0); d.Outcome != Pass || d.ExtraUS != 0 {
			t.Fatalf("zero-rate plan injected %+v at call %d", d, i)
		}
	}
	p = New(Plan{Seed: 1, DropRate: 1}).Peer("w")
	for i := 0; i < 100; i++ {
		if d := p.Next("op", 0); d.Outcome != Drop {
			t.Fatalf("DropRate=1 produced %+v at call %d", d, i)
		}
	}
}

func TestPartitionWindow(t *testing.T) {
	plan := Plan{Seed: 5, Partitions: []Partition{{Peer: "w0", FromUS: 100, ToUS: 200}}}
	in := New(plan)
	p := in.Peer("w0")
	other := in.Peer("w1")

	cases := []struct {
		nowUS float64
		down  bool
	}{
		{0, false}, {99.9, false}, {100, true}, {150, true}, {199.9, true}, {200, false}, {1e6, false},
	}
	for _, c := range cases {
		if got := p.Next("op", c.nowUS) == (Decision{Outcome: Down}); got != c.down {
			t.Fatalf("now=%v: down=%v, want %v", c.nowUS, got, c.down)
		}
	}
	// The window is keyed to w0 only.
	if d := other.Next("op", 150); d.Outcome != Pass {
		t.Fatalf("partition leaked to another peer: %+v", d)
	}
}

func TestKillIsPermanent(t *testing.T) {
	in := New(Plan{Seed: 2, Kill: map[string]uint64{"w2": 4}})
	p := in.Peer("w2")
	for i := 1; i <= 10; i++ {
		d := p.Next("op", 0)
		if i < 4 && d.Outcome == Down {
			t.Fatalf("killed before call 4 (call %d)", i)
		}
		if i >= 4 && d.Outcome != Down {
			t.Fatalf("alive after kill at call %d: %+v", i, d)
		}
	}
	if surv := in.Peer("w3").Next("op", 0); surv.Outcome != Pass {
		t.Fatalf("kill leaked to another peer: %+v", surv)
	}
}

func TestDoOutcomes(t *testing.T) {
	invoked := 0
	invoke := func() (float64, error) { invoked++; return 100, nil }

	// Drop: invoke never runs.
	p := New(Plan{Seed: 1, DropRate: 1}).Peer("w")
	el, err := p.Do("op", 1000, 0, invoke)
	if !errors.Is(err, ErrDropped) || invoked != 0 || el != 0 {
		t.Fatalf("drop: el=%v err=%v invoked=%d", el, err, invoked)
	}

	// Hang: bills the deadline, invoke never runs.
	p = New(Plan{Seed: 1, HangRate: 1}).Peer("w")
	el, err = p.Do("op", 1000, 0, invoke)
	if !errors.Is(err, ErrDeadline) || invoked != 0 || el != 1000 {
		t.Fatalf("hang: el=%v err=%v invoked=%d", el, err, invoked)
	}

	// ReplyLost: invoke runs, caller still times out.
	p = New(Plan{Seed: 1, ReplyLossRate: 1}).Peer("w")
	el, err = p.Do("op", 1000, 0, invoke)
	if !errors.Is(err, ErrReplyLost) || invoked != 1 || el != 1000 {
		t.Fatalf("replylost: el=%v err=%v invoked=%d", el, err, invoked)
	}

	// Slow past the deadline surfaces as a deadline error.
	invoked = 0
	p = New(Plan{Seed: 1, SlowRate: 1, SlowUS: 1e6}).Peer("w")
	el, err = p.Do("op", 1000, 0, invoke)
	if !errors.Is(err, ErrDeadline) || invoked != 1 || el != 1000 {
		t.Fatalf("slow-past-deadline: el=%v err=%v invoked=%d", el, err, invoked)
	}

	// Slow within a generous deadline passes with extra latency.
	invoked = 0
	p = New(Plan{Seed: 1, SlowRate: 1, SlowUS: 200}).Peer("w")
	el, err = p.Do("op", 1e6, 0, invoke)
	if err != nil || invoked != 1 || el <= 100 || el > 100+300 {
		t.Fatalf("slow: el=%v err=%v invoked=%d", el, err, invoked)
	}

	// Clean pass is transparent.
	invoked = 0
	p = New(Plan{Seed: 1}).Peer("w")
	el, err = p.Do("op", 1e6, 0, invoke)
	if err != nil || invoked != 1 || el != 100 {
		t.Fatalf("pass: el=%v err=%v invoked=%d", el, err, invoked)
	}

	// The wrapped call's own error passes through un-translated.
	boom := errors.New("engine exploded")
	el, err = p.Do("op", 1e6, 0, func() (float64, error) { return 5, boom })
	if !errors.Is(err, boom) || el != 5 || Injected(err) {
		t.Fatalf("wrapped error: el=%v err=%v", el, err)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	for attempt := 2; attempt <= 5; attempt++ {
		want := float64(backoffBaseUS)
		for i := 2; i < attempt; i++ {
			want *= 2
		}
		d1 := Backoff("w1", attempt)
		d2 := Backoff("w1", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		if d1 < want*0.5 || d1 >= want*1.5 {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d1, want*0.5, want*1.5)
		}
	}
	if Backoff("w1", 1) != 0 {
		t.Fatal("first attempt must not back off")
	}
	if Backoff("w1", 3) == Backoff("w2", 3) {
		t.Fatal("jitter does not separate peers")
	}
}

func TestInjectedClassifier(t *testing.T) {
	for _, err := range []error{ErrDropped, ErrDeadline, ErrReplyLost, ErrPeerDown} {
		if !Injected(err) {
			t.Fatalf("%v not classified as injected", err)
		}
	}
	if Injected(errors.New("other")) || Injected(nil) {
		t.Fatal("misclassified non-injected error")
	}
}

// TestNextAndBackoffDoNotAllocate holds the claim in Next's doc comment:
// drawing a decision and a backoff is arithmetic on the call's own values.
// No probe row runs under a fault plan, so this is the only guard on it.
func TestNextAndBackoffDoNotAllocate(t *testing.T) {
	p := New(Plan{Seed: 7, DropRate: 0.2, HangRate: 0.1, ReplyLossRate: 0.1, SlowRate: 0.3, SlowUS: 1000}).Peer("worker-0")
	var sink float64
	if allocs := testing.AllocsPerRun(200, func() {
		sink += p.Next("search", 0).ExtraUS + Backoff("worker-0", 3)
	}); allocs != 0 {
		t.Errorf("Peer.Next + Backoff allocate %.1f/op, want 0", allocs)
	}
	_ = sink
}
