package market

import "creditp2p/internal/sim"

// Sim is a stepwise handle over one market simulation, exposing the run
// phases Run fuses — construction, start, event-by-event stepping and
// finish — so the fault-injection harness can audit the kernel between
// events. Run(cfg) is implemented on top of this handle and is
// byte-identical to driving it manually.
type Sim struct {
	s *simulation
}

// NewSim validates cfg and builds a simulation ready to Start.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSimulation(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{s: s}, nil
}

// Kernel exposes the underlying simulation kernel (fault injection hooks,
// audits, metrics).
func (m *Sim) Kernel() *sim.Kernel { return m.s.k }

// Start arms the initial events. Call exactly once.
func (m *Sim) Start() error {
	if m.s.cfg.Churn == nil {
		// A closed overlay never dirties a neighborhood, so build every
		// routing neighborhood once, carved from one shared slab (identical
		// contents to the lazy path; see Run).
		m.s.prebuildNeighborhoods()
	}
	return m.s.k.Start()
}

// Step delivers the next pending event within the horizon, reporting
// whether one fired.
func (m *Sim) Step() bool { return m.s.k.Step() }

// Run delivers every remaining event and seals virtual time at the horizon.
func (m *Sim) Run() { m.s.k.Run() }

// Finish seals virtual time (idempotent after Run) and assembles the
// Result, verifying credit conservation.
func (m *Sim) Finish() (*Result, error) {
	m.s.k.SealTime()
	if err := m.s.finish(); err != nil {
		return nil, err
	}
	return m.s.res, nil
}

// Run executes the simulation described by cfg.
func Run(cfg Config) (*Result, error) {
	m, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		return nil, err
	}
	m.Run()
	return m.Finish()
}
