// Package faultsim is a seeded, deterministic fault injector for the
// distributed serving path. It decides the fate of coordinator→worker (or
// coordinator→kvstore) transport calls — latency spikes, dropped calls,
// hangs that outlive the caller's deadline, work-done-but-reply-lost
// failures, and partition windows — from nothing but a seed, a per-peer
// call counter, and the peer's *virtual* clock. Wall time never enters the
// decision, so a fault schedule replays bit-identically across runs,
// GOMAXPROCS settings, and machines: the same contract the GPU timing
// simulation keeps (see DESIGN.md, "Correctness invariants").
//
// The injector plugs in behind a minimal transport seam: callers funnel
// each call through Peer.Do with a closure that runs the real call and
// reports the virtual microseconds it consumed. With a nil injector the
// seam collapses to a direct invocation (zero-fault serving is bit-
// identical to not having the seam at all).
package faultsim

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Injected call failures. Callers distinguish them from genuine worker
// errors with Injected.
var (
	// ErrDropped is a call that never reached the peer.
	ErrDropped = errors.New("faultsim: call dropped")
	// ErrDeadline is a call that exceeded the caller's per-call deadline
	// (the peer hung, or was slow enough that the caller gave up).
	ErrDeadline = errors.New("faultsim: deadline exceeded")
	// ErrReplyLost is a call whose work completed on the peer but whose
	// reply never arrived (slow-then-fail: the caller cannot tell this
	// from a hang, but the peer's state did advance).
	ErrReplyLost = errors.New("faultsim: reply lost")
	// ErrPeerDown is a peer that is unreachable: inside a partition
	// window, or killed by the schedule.
	ErrPeerDown = errors.New("faultsim: peer unreachable")
)

// Injected reports whether err originated from a fault schedule rather
// than from the wrapped call itself.
func Injected(err error) bool {
	return errors.Is(err, ErrDropped) || errors.Is(err, ErrDeadline) ||
		errors.Is(err, ErrReplyLost) || errors.Is(err, ErrPeerDown)
}

// Partition makes a peer unreachable while its virtual clock is inside
// [FromUS, ToUS). Because the clock only advances when the peer performs
// simulated work, a partition "heals" deterministically: the first call
// after the peer's clock passes ToUS goes through.
type Partition struct {
	Peer   string
	FromUS float64
	ToUS   float64
}

// Plan is a deterministic fault schedule. Rates are probabilities in
// [0, 1] evaluated per call from a hash of (Seed, peer, op, call index);
// they are cumulative in the order Drop, Hang, ReplyLoss, Slow (a single
// uniform draw picks at most one outcome per call).
type Plan struct {
	// Seed keys every per-call decision. Two injectors with the same plan
	// issue identical decision sequences to identically-named peers.
	Seed int64
	// DropRate is the probability a call errors immediately without
	// reaching the peer.
	DropRate float64
	// HangRate is the probability a call hangs until the caller's
	// deadline fires (the peer never executes it).
	HangRate float64
	// ReplyLossRate is the probability the peer executes the call but the
	// reply is lost: the caller sees a deadline error, the peer's clock
	// and state advance (slow-then-fail).
	ReplyLossRate float64
	// SlowRate is the probability of a latency spike: the call succeeds
	// after SlowUS·[0.5, 1.5) extra virtual microseconds. A spike that
	// pushes the call past its deadline surfaces as ErrDeadline.
	SlowRate float64
	// SlowUS is the mean injected latency of a spike.
	SlowUS float64
	// Partitions are virtual-clock unreachability windows.
	Partitions []Partition
	// Kill maps a peer name to the 1-based call index at which the peer
	// dies permanently: that call and every later one fail ErrPeerDown.
	// This is the "kill a worker mid-stream" primitive of the chaos suite.
	Kill map[string]uint64
}

// Injector hands out per-peer fault decision streams for one Plan.
type Injector struct {
	plan Plan

	mu    sync.Mutex
	peers map[string]*Peer
}

// New builds an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan, peers: make(map[string]*Peer)}
}

// Peer returns the decision stream for the named peer, creating it on
// first use. Callers should cache the handle: Peer takes a lock, Do/Next
// do not.
func (in *Injector) Peer(name string) *Peer {
	in.mu.Lock()
	defer in.mu.Unlock()
	if p, ok := in.peers[name]; ok {
		return p
	}
	p := &Peer{plan: &in.plan, tag: hashString(uint64(in.plan.Seed), name)}
	for _, w := range in.plan.Partitions {
		if w.Peer == name {
			p.parts = append(p.parts, w)
		}
	}
	if in.plan.Kill != nil {
		p.killAt = in.plan.Kill[name]
	}
	in.peers[name] = p
	return p
}

// Peer is one peer's deterministic decision stream. The per-peer call
// counter makes decisions independent of how calls to *other* peers
// interleave: scatter-gather over N workers sees the same per-worker fault
// sequence at any GOMAXPROCS.
type Peer struct {
	plan   *Plan
	tag    uint64 // hash of (seed, name), folded into every decision
	seq    atomic.Uint64
	parts  []Partition
	killAt uint64
}

// Outcome is the fate of one call.
type Outcome int

const (
	// Pass executes the call unmodified.
	Pass Outcome = iota
	// Slow executes the call, then adds ExtraUS of virtual latency.
	Slow
	// Drop fails the call immediately; the peer never sees it.
	Drop
	// Hang blocks the call past the caller's deadline; the peer never
	// executes it.
	Hang
	// ReplyLost executes the call but loses the reply; the caller times
	// out while the peer's state advances.
	ReplyLost
	// Down is an unreachable peer (partition window or kill).
	Down
)

// String names the outcome for logs and test tables.
func (o Outcome) String() string {
	switch o {
	case Pass:
		return "pass"
	case Slow:
		return "slow"
	case Drop:
		return "drop"
	case Hang:
		return "hang"
	case ReplyLost:
		return "replylost"
	case Down:
		return "down"
	}
	return "unknown"
}

// Decision is the injector's verdict for one call.
type Decision struct {
	Outcome Outcome
	// ExtraUS is injected latency in virtual microseconds (Slow only).
	ExtraUS float64
}

// Next draws the fate of the peer's next call. op folds the operation name
// into the decision hash; nowUS is the peer's current virtual-clock
// reading, evaluated against partition windows. Purely arithmetic: no wall
// clock, no global randomness, no allocation.
func (p *Peer) Next(op string, nowUS float64) Decision {
	seq := p.seq.Add(1)
	if p.killAt > 0 && seq >= p.killAt {
		return Decision{Outcome: Down}
	}
	for _, w := range p.parts {
		if nowUS >= w.FromUS && nowUS < w.ToUS {
			return Decision{Outcome: Down}
		}
	}
	h := mix(p.tag ^ hashString(seq, op))
	u := uniform(h)
	pl := p.plan
	switch {
	case u < pl.DropRate:
		return Decision{Outcome: Drop}
	case u < pl.DropRate+pl.HangRate:
		return Decision{Outcome: Hang}
	case u < pl.DropRate+pl.HangRate+pl.ReplyLossRate:
		return Decision{Outcome: ReplyLost}
	case u < pl.DropRate+pl.HangRate+pl.ReplyLossRate+pl.SlowRate:
		// Spike magnitude from a second, independent hash draw.
		return Decision{Outcome: Slow, ExtraUS: pl.SlowUS * (0.5 + uniform(mix(h)))}
	}
	return Decision{}
}

// Do applies the peer's next fault decision to one call. invoke runs the
// real call and returns the virtual microseconds it consumed; deadlineUS
// (<= 0: none) is the caller's per-call deadline and nowUS the peer's
// virtual clock at issue time. The returned latency is what the *caller*
// observes: injected latency counts, and failed calls bill the full
// deadline (the caller waited that long to find out).
func (p *Peer) Do(op string, deadlineUS, nowUS float64, invoke func() (float64, error)) (float64, error) {
	d := p.Next(op, nowUS)
	switch d.Outcome {
	case Down:
		return 0, ErrPeerDown
	case Drop:
		return 0, ErrDropped
	case Hang:
		if deadlineUS > 0 {
			return deadlineUS, ErrDeadline
		}
		return 0, ErrDropped
	case ReplyLost:
		el, err := invoke()
		if err != nil {
			// The call itself failed; the lost reply is moot.
			return el, err
		}
		if deadlineUS > 0 && deadlineUS > el {
			el = deadlineUS
		}
		return el, ErrReplyLost
	}
	el, err := invoke()
	if err != nil {
		return el, err
	}
	el += d.ExtraUS
	if deadlineUS > 0 && el > deadlineUS {
		return deadlineUS, ErrDeadline
	}
	return el, nil
}

// The retry backoff's base delay before the first retry, in virtual
// microseconds, and the seed of its jitter.
const (
	backoffBaseUS = 5000
	backoffSeed   = 1
)

// Backoff returns the deterministic jittered backoff, in virtual
// microseconds, charged before retry attempt n (2-based: the first retry
// is attempt 2). The base delay (backoffBaseUS) doubles per attempt and is
// multiplied by a jitter factor in [0.5, 1.5) derived from (peer, attempt)
// — spread enough to de-synchronize retry storms, deterministic enough to
// replay.
func Backoff(peer string, attempt int) float64 {
	if attempt < 2 {
		return 0
	}
	d := float64(backoffBaseUS)
	for i := 2; i < attempt; i++ {
		d *= 2
	}
	return d * (0.5 + uniform(mix(hashString(backoffSeed, peer)^uint64(attempt))))
}

// hashString folds s into a seed with FNV-1a, then finalizes.
func hashString(seed uint64, s string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return mix(h)
}

// mix is the splitmix64 finalizer: a bijective avalanche over 64 bits.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// uniform maps a hash to [0, 1).
func uniform(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
