package policy

import (
	"creditp2p/internal/snapshot"
)

// Stateful is implemented by policies carrying mutable run state beyond
// their configuration: cumulative counters and controller outputs. The
// engine saves and loads stages in pipeline order, so a restored pipeline
// must be reconstructed with the same stages in the same order (which the
// config-driven restore path guarantees).
type Stateful interface {
	SaveState(w *snapshot.Writer)
	LoadState(r *snapshot.Reader)
}

// SaveState serializes every stateful stage in pipeline order.
func (e *Engine) SaveState(w *snapshot.Writer) {
	w.Section("policies")
	for _, p := range e.ps {
		if s, ok := p.(Stateful); ok {
			s.SaveState(w)
		}
	}
}

// LoadState restores every stateful stage in pipeline order.
func (e *Engine) LoadState(r *snapshot.Reader) {
	r.Section("policies")
	for _, p := range e.ps {
		if s, ok := p.(Stateful); ok {
			s.LoadState(r)
		}
	}
}

// SaveState serializes the cumulative collection counter.
func (it *IncomeTax) SaveState(w *snapshot.Writer) {
	w.Section("income-tax")
	w.I64(it.collected)
}

// LoadState restores the counter serialized by SaveState.
func (it *IncomeTax) LoadState(r *snapshot.Reader) {
	r.Section("income-tax")
	it.collected = r.I64()
}

// SaveState serializes the controller output and collection counter; the
// config is reconstructed by the restore caller.
func (at *AdaptiveTax) SaveState(w *snapshot.Writer) {
	w.Section("adaptive-tax")
	w.F64(at.rate)
	w.I64(at.collected)
}

// LoadState restores the state serialized by SaveState.
func (at *AdaptiveTax) LoadState(r *snapshot.Reader) {
	r.Section("adaptive-tax")
	at.rate = r.F64()
	at.collected = r.I64()
}

// SaveState serializes the cumulative decay counter.
func (d *Demurrage) SaveState(w *snapshot.Writer) {
	w.Section("demurrage")
	w.I64(d.collected)
}

// LoadState restores the counter serialized by SaveState.
func (d *Demurrage) LoadState(r *snapshot.Reader) {
	r.Section("demurrage")
	d.collected = r.I64()
}

// SaveState serializes the cumulative payout counter.
func (rd *Redistribute) SaveState(w *snapshot.Writer) {
	w.Section("redistribute")
	w.I64(rd.paid)
}

// LoadState restores the counter serialized by SaveState.
func (rd *Redistribute) LoadState(r *snapshot.Reader) {
	r.Section("redistribute")
	rd.paid = r.I64()
}

// SaveState serializes the cumulative subsidy counters.
func (ns *NewcomerSubsidy) SaveState(w *snapshot.Writer) {
	w.Section("subsidy")
	w.I64(ns.minted)
	w.I64(ns.paid)
}

// LoadState restores the counters serialized by SaveState.
func (ns *NewcomerSubsidy) LoadState(r *snapshot.Reader) {
	r.Section("subsidy")
	ns.minted = r.I64()
	ns.paid = r.I64()
}

// SaveState serializes the cumulative mint counter.
func (in *Injection) SaveState(w *snapshot.Writer) {
	w.Section("injection")
	w.I64(in.injected)
}

// LoadState restores the counter serialized by SaveState.
func (in *Injection) LoadState(r *snapshot.Reader) {
	r.Section("injection")
	in.injected = r.I64()
}
