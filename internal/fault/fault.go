// Package fault is the deterministic fault-injection and invariant-audit
// harness for the simulation kernel. It drives a run event by event while
// injecting seed-driven faults through the kernel's sim.FaultInjector hooks
// — probabilistic transfer failures and workload-event drops — and
// periodically audits the run's invariants (credit conservation, scheduler
// and peer-table slab integrity, incremental-vs-exact Gini agreement).
// Failures surface as structured diagnostics and one aggregate error, never
// a panic: even a panicking workload is caught and reported.
//
// The package also provides snapshot-corruption helpers (truncation, bit
// flips, tears) for exercising the checkpoint format's rejection paths.
package fault

import (
	"errors"
	"fmt"
	"math"

	"creditp2p/internal/des"
	"creditp2p/internal/sim"
	"creditp2p/internal/xrand"
)

// Plan configures one deterministic fault-injection schedule. All
// randomness derives from Seed through a stream independent of the
// simulation's own, so enabling injection never perturbs which events the
// simulation would draw — only which operations fail.
type Plan struct {
	// Seed drives the injection stream.
	Seed int64
	// TransferFailProb is the probability that a peer-to-peer transfer
	// fails as if the payer were insolvent.
	TransferFailProb float64
	// EventDropProb is the probability that a workload event (kind >=
	// sim.KindUser) is silently discarded before dispatch.
	EventDropProb float64
}

func (p Plan) validate() error {
	if p.TransferFailProb < 0 || p.TransferFailProb >= 1 {
		return fmt.Errorf("fault: transfer-fail probability %v outside [0, 1)", p.TransferFailProb)
	}
	if p.EventDropProb < 0 || p.EventDropProb >= 1 {
		return fmt.Errorf("fault: event-drop probability %v outside [0, 1)", p.EventDropProb)
	}
	return nil
}

// Injector implements sim.FaultInjector with a plan-seeded RNG stream and
// counters for every fault it injects.
type Injector struct {
	plan Plan
	rng  *xrand.RNG
	// FailedTransfers and DroppedEvents count injected faults.
	FailedTransfers, DroppedEvents uint64
}

var _ sim.FaultInjector = (*Injector)(nil)

// NewInjector builds an injector for the plan.
func NewInjector(p Plan) (*Injector, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Injector{plan: p, rng: xrand.New(p.Seed)}, nil
}

// FailTransfer implements sim.FaultInjector.
func (in *Injector) FailTransfer(now float64, from, to int32, amount int64) bool {
	if in.plan.TransferFailProb <= 0 || !in.rng.Bernoulli(in.plan.TransferFailProb) {
		return false
	}
	in.FailedTransfers++
	return true
}

// DropEvent implements sim.FaultInjector.
func (in *Injector) DropEvent(ev des.Event) bool {
	if in.plan.EventDropProb <= 0 || !in.rng.Bernoulli(in.plan.EventDropProb) {
		return false
	}
	in.DroppedEvents++
	return true
}

// Diagnostic is one structured finding from the harness: an invariant
// violated at a known virtual time and event index, or a recovered panic.
type Diagnostic struct {
	// Time is the virtual time of the finding.
	Time float64
	// Event is the fired-event index at the finding.
	Event uint64
	// Check names the failed check ("audit", "panic", "finish").
	Check string
	// Err is the underlying error.
	Err error
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("t=%.3f event=%d %s: %v", d.Time, d.Event, d.Check, d.Err)
}

// Stepper is a stepwise simulation handle (market.Sim and streaming.Sim
// both satisfy it).
type Stepper interface {
	Step() bool
	Kernel() *sim.Kernel
}

// Report is the outcome of one harness run.
type Report struct {
	// Events is the number of events delivered.
	Events uint64
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
	errs = append(errs, fmt.Errorf("fault: %d invariant violations across %d events", len(rep.Diagnostics), rep.Events))
	for _, d := range rep.Diagnostics {
		errs = append(errs, errors.New(d.String()))
	}
	return errors.Join(errs...)
}

// Run drives a started simulation to completion under the
// injector, auditing the kernel's invariants every auditEvery delivered
// events (and once at the end). A nil injector audits without injecting.
// Workload panics are recovered into diagnostics; Run itself never panics.
func Run(s Stepper, in *Injector, auditEvery int) *Report {
	if auditEvery < 1 {
		auditEvery = math.MaxInt // audit only at the end
	}
	k := s.Kernel()
	if in != nil {
		k.SetFaultInjector(in)
		defer k.SetFaultInjector(nil)
	}
	rep := &Report{}
	record := func(check string, err error) {
		rep.Diagnostics = append(rep.Diagnostics, Diagnostic{
			Time:  k.Sched.Now(),
			Event: rep.Events,
			Check: check,
			Err:   err,
		})
	}
	audit := func() {
		rep.Audits++
		if err := k.Audit(); err != nil {
			record("audit", err)
		}
	}
	step := func() (fired bool) {
		defer func() {
			if r := recover(); r != nil {
				record("panic", fmt.Errorf("recovered: %v", r))
				fired = false
			}
		}()
		return s.Step()
	}
	for step() {
		rep.Events++
		if rep.Events%uint64(auditEvery) == 0 {
			audit()
		}
	}
	k.SealTime()
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
