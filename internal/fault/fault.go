// Package fault is the deterministic fault-injection and invariant-audit
// harness for the sharded kernel. A Plan wraps a shard.Workload so that
// some workload events fail as attempts (the peer does nothing and tries
// again later) and some are dropped (the peer goes quiet until it
// rejoins), and Run steps a run window by window, calling Engine.Audit —
// credit conservation, scheduler integrity, pending handles, liveness
// views, balance histograms — at every auditEvery-th barrier. Failures
// surface as structured diagnostics and one aggregate error, never a
// panic: a panicking workload is recovered on its own lane and reported.
//
// The package also provides snapshot-corruption helpers (truncation, bit
// flips, tears) for exercising the checkpoint format's rejection paths.
package fault

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"creditp2p/internal/des"
	"creditp2p/internal/shard"
	"creditp2p/internal/xrand"
)

// Plan configures one deterministic fault-injection schedule. Whether an
// event faults is a hash of (Seed, the event's peer, the event's time), so
// a faulted run draws nothing from the simulation's streams and carries
// no state of its own: it is as shard-count-invariant and as resumable as
// the run it wraps.
type Plan struct {
	// Seed keys the fault draws.
	Seed int64
	// FailProb is the probability that a workload event fails as an
	// attempt: the wrapped workload does not see it, and the peer is
	// re-armed as after a rejoin.
	FailProb float64
	// DropProb is the probability that a workload event is dropped: the
	// wrapped workload does not see it and nothing replaces it, so the
	// peer stays quiet until it departs and rejoins.
	DropProb float64
}

// Wrap returns w under the plan, for shard.Config.Workload. The wrapper
// declares w's counters plus one, "faults", counting the failed and
// dropped events; like w, it serves one engine.
func (p Plan) Wrap(w shard.Workload) (shard.Workload, error) {
	if w == nil {
		return nil, errors.New("fault: nil workload")
	}
	if !(p.FailProb >= 0 && p.DropProb >= 0 && p.FailProb+p.DropProb < 1) {
		return nil, fmt.Errorf("fault: fail probability %v and drop probability %v must be non-negative with a sum below 1", p.FailProb, p.DropProb)
	}
	names := w.CounterNames()
	if len(names) >= shard.MaxCounters {
		return nil, fmt.Errorf("fault: workload declares %d counters, no room for the fault counter", len(names))
	}
	return &faulty{
		Workload: w,
		plan:     p,
		names:    append(slices.Clip(names), "faults"),
	}, nil
}

// faulty is a workload under a Plan.
type faulty struct {
	shard.Workload
	plan  Plan
	names []string
	// e is the engine Setup built the workload for: recovered panics are
	// handed to Run under it.
	e *shard.Engine
}

func (f *faulty) Setup(e *shard.Engine) error {
	f.e = e
	return f.Workload.Setup(e)
}

// draw is ev's fault draw in [0, 1): a function of the plan seed, the
// peer and the event time alone.
func (f *faulty) draw(ev des.Event) float64 {
	peer := xrand.NewSplitMix64(f.plan.Seed, int64(ev.Actor))
	r := xrand.NewSplitMix64(int64(peer.Next()), int64(math.Float64bits(ev.Time)))
	return r.Float64()
}

// OnEvent fails, drops or passes ev to the wrapped workload. A panic in
// the workload is recovered here, on the lane that raised it, because no
// recover on the coordinator can catch a lane goroutine's panic.
func (f *faulty) OnEvent(ln *shard.Lane, ev des.Event) {
	defer func() {
		if r := recover(); r != nil {
			recordPanic(f.e, Diagnostic{Time: ev.Time, Check: "panic",
				Err: fmt.Errorf("lane %d, peer %d: recovered: %v", ln.S, ev.Actor, r)})
		}
	}()
	switch u := f.draw(ev); {
	case u < f.plan.FailProb:
		ln.Count(len(f.names) - 1)
		f.Workload.Arm(ln, ev.Actor)
	case u < f.plan.FailProb+f.plan.DropProb:
		ln.Count(len(f.names) - 1)
	default:
		f.Workload.OnEvent(ln, ev)
	}
}

func (f *faulty) CounterNames() []string { return f.names }

// Digest folds the plan into the wrapped workload's digest, so a base
// restores only under the plan it was taken under.
func (f *faulty) Digest() uint64 {
	h := f.Workload.Digest()
	for _, v := range []uint64{0x6661756c74 /* "fault" */, uint64(f.plan.Seed),
		math.Float64bits(f.plan.FailProb), math.Float64bits(f.plan.DropProb)} {
		h = (h ^ v) * 1099511628211
	}
	return h
}

// lanePanics holds the panics faulty.OnEvent recovered, by engine, until
// Run collects them. It is written only when a workload panics.
var lanePanics = struct {
	sync.Mutex
	byEngine map[*shard.Engine][]Diagnostic
}{byEngine: map[*shard.Engine][]Diagnostic{}}

func recordPanic(e *shard.Engine, d Diagnostic) {
	lanePanics.Lock()
	defer lanePanics.Unlock()
	lanePanics.byEngine[e] = append(lanePanics.byEngine[e], d)
}

// Diagnostic is one structured finding from the harness: an invariant
// violated at a known barrier, or a recovered panic.
type Diagnostic struct {
	// Time is the virtual time of the finding: the barrier of a failed
	// audit, the event of a panic.
	Time float64
	// Window is the number of windows stepped when the finding was
	// collected.
	Window uint64
	// Check names the failed check ("audit" or "panic").
	Check string
	// Err is the underlying error.
	Err error
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("t=%.3f window=%d %s: %v", d.Time, d.Window, d.Check, d.Err)
}

// Report is the outcome of one harness run.
type Report struct {
	// Windows is the number of windows stepped.
	Windows uint64
	// Audits is the number of invariant audits performed.
	Audits uint64
	// Diagnostics lists every finding in order.
	Diagnostics []Diagnostic
}

// Err aggregates the diagnostics into one error (nil when the run was
// clean).
func (rep *Report) Err() error {
	if len(rep.Diagnostics) == 0 {
		return nil
	}
	errs := make([]error, 0, len(rep.Diagnostics)+1)
	errs = append(errs, fmt.Errorf("fault: %d findings across %d windows", len(rep.Diagnostics), rep.Windows))
	for _, d := range rep.Diagnostics {
		errs = append(errs, errors.New(d.String()))
	}
	return errors.Join(errs...)
}

// Run steps a started run to the horizon, auditing the engine after every
// auditEvery-th window and once at the end (auditEvery < 1 audits only at
// the end). Panics a Plan recovered on the lanes are reported after the
// window they happened in; a panic on the coordinator stops the run and is
// reported too. Run itself never panics. The caller finishes the run.
func Run(s *shard.Sim, auditEvery int) *Report {
	e := s.Engine()
	rep := &Report{}
	record := func(d Diagnostic) {
		d.Window = rep.Windows
		rep.Diagnostics = append(rep.Diagnostics, d)
	}
	audit := func() {
		rep.Audits++
		if err := e.Audit(); err != nil {
			record(Diagnostic{Time: s.Now(), Check: "audit", Err: err})
		}
	}
	step := func() (stepped bool) {
		defer func() {
			if r := recover(); r != nil {
				record(Diagnostic{Time: s.Now(), Check: "panic", Err: fmt.Errorf("recovered: %v", r)})
				stepped = false
			}
		}()
		return s.StepWindow()
	}
	for {
		stepped := step()
		if stepped {
			rep.Windows++
		}
		lanePanics.Lock()
		for _, d := range lanePanics.byEngine[e] {
			record(d)
		}
		delete(lanePanics.byEngine, e)
		lanePanics.Unlock()
		if !stepped {
			break
		}
		if auditEvery > 0 && rep.Windows%uint64(auditEvery) == 0 {
			audit()
		}
	}
	audit()
	return rep
}

// Truncate returns a copy of data cut to n bytes — a partially-written
// snapshot file.
func Truncate(data []byte, n int) []byte {
	if n > len(data) {
		n = len(data)
	}
	out := make([]byte, n)
	copy(out, data[:n])
	return out
}

// BitFlip returns a copy of data with one bit inverted — silent media
// corruption.
func BitFlip(data []byte, bit int) []byte {
	out := make([]byte, len(data))
	copy(out, data)
	if len(out) > 0 {
		i := (bit / 8) % len(out)
		out[i] ^= 1 << (uint(bit) & 7)
	}
	return out
}

// Tear returns a copy of data whose tail, from offset at on, is replaced
// with zeros — a torn write that kept the file length but lost the tail.
func Tear(data []byte, at int) []byte {
	out := make([]byte, len(data))
	copy(out, data[:min(at, len(data))])
	return out
}

// CorruptChain sweeps every storage-corruption mode over every link of a
// checkpoint chain: for each link it yields one variant with the link
// truncated to half, one with a mid-file bit flipped, and one with the
// tail torn off from the middle. fn receives a description naming the
// link and mode plus the corrupted chain (other links shared, the victim
// replaced by a fresh corrupted copy). A restore path is expected to
// refuse every variant.
func CorruptChain(chain [][]byte, fn func(desc string, corrupted [][]byte)) {
	modes := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncate-half", func(d []byte) []byte { return Truncate(d, len(d)/2) }},
		{"bitflip-mid", func(d []byte) []byte { return BitFlip(d, len(d)*8/2) }},
		{"tear-tail", func(d []byte) []byte { return Tear(d, len(d)/2) }},
	}
	for k := range chain {
		for _, m := range modes {
			corrupted := make([][]byte, len(chain))
			copy(corrupted, chain)
			corrupted[k] = m.corrupt(chain[k])
			fn(fmt.Sprintf("link %d %s", k, m.name), corrupted)
		}
	}
}
