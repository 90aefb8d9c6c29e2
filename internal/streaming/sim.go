package streaming

// Sim is a handle over one streaming-swarm simulation, exposing the
// phases Run fuses — construction, start, the run to the horizon and
// finish — so a caller can check that a config builds and starts without
// running it.
type Sim struct {
	s *swarm
}

// NewSim validates cfg and builds a swarm ready to Start.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s, err := newSwarm(cfg)
	if err != nil {
		return nil, err
	}
	return &Sim{s: s}, nil
}

// Start arms the tick stream. Call exactly once.
func (m *Sim) Start() error { return m.s.k.Start() }

// Run delivers every remaining event and seals virtual time at the horizon.
func (m *Sim) Run() { m.s.k.Run() }

// Finish assembles the Result after Run, verifying credit conservation.
func (m *Sim) Finish() (*Result, error) {
	if err := m.s.finish(); err != nil {
		return nil, err
	}
	return m.s.res, nil
}

// Run executes the simulation.
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
