package policy

import (
	"errors"
	"math"
	"testing"

	"creditp2p/internal/snapshot"
	"creditp2p/internal/stats"
	"creditp2p/internal/xrand"
)

// fakeHost is an in-memory Host for pipeline tests: dense balances, a pot,
// and a wake log.
type fakeHost struct {
	bal     []int64
	alive   []bool
	pot     int64
	rng     *xrand.RNG
	running bool
	now     float64
	woken   []int32
}

func newFakeHost(balances ...int64) *fakeHost {
	h := &fakeHost{bal: balances, alive: make([]bool, len(balances)), rng: xrand.New(1), running: true}
	for i := range h.alive {
		h.alive[i] = true
	}
	return h
}

func (h *fakeHost) Now() float64        { return h.now }
func (h *fakeHost) Running() bool       { return h.running }
func (h *fakeHost) RNG() *xrand.RNG     { return h.rng }
func (h *fakeHost) Peers() int          { return len(h.bal) }
func (h *fakeHost) Alive(px int32) bool { return h.alive[px] }
func (h *fakeHost) Live() int {
	n := 0
	for _, a := range h.alive {
		if a {
			n++
		}
	}
	return n
}
func (h *fakeHost) Balance(px int32) int64 { return h.bal[px] }
func (h *fakeHost) PotBalance() int64      { return h.pot }
func (h *fakeHost) Collect(px int32, amount int64) bool {
	if amount < 0 || h.bal[px] < amount {
		return false
	}
	h.bal[px] -= amount
	h.pot += amount
	return true
}
func (h *fakeHost) Pay(px int32, amount int64) bool {
	if amount < 0 || h.pot < amount {
		return false
	}
	h.pot -= amount
	h.bal[px] += amount
	h.woken = append(h.woken, px)
	return true
}
func (h *fakeHost) Mint(px int32, amount int64) bool {
	if amount < 0 {
		return false
	}
	h.bal[px] += amount
	h.woken = append(h.woken, px)
	return true
}
func (h *fakeHost) Gini() (float64, bool) {
	vals := make([]float64, 0, len(h.bal))
	for i, b := range h.bal {
		if h.alive[i] {
			vals = append(vals, float64(b))
		}
	}
	if len(vals) == 0 {
		return 0, false
	}
	g, err := stats.Gini(vals)
	return g, err == nil
}

func (h *fakeHost) total() int64 {
	sum := h.pot
	for _, b := range h.bal {
		sum += b
	}
	return sum
}

// TestConstructorValidation exercises every constructor's error paths.
func TestConstructorValidation(t *testing.T) {
	if _, err := NewIncomeTax(-0.1, 0); err == nil {
		t.Error("negative tax rate accepted")
	}
	if _, err := NewIncomeTax(1.2, 0); err == nil {
		t.Error("tax rate above 1 accepted")
	}
	if _, err := NewIncomeTax(0.2, -5); err == nil {
		t.Error("negative threshold accepted")
	}
	if _, err := NewDemurrage(1.5, 0); err == nil {
		t.Error("demurrage rate above 1 accepted")
	}
	if _, err := NewDemurrage(0.1, -1); err == nil {
		t.Error("negative exemption accepted")
	}
	if _, err := NewNewcomerSubsidy(0, false); err == nil {
		t.Error("zero subsidy grant accepted")
	}
	if _, err := NewInjection(0); err == nil {
		t.Error("zero injection amount accepted")
	}
	if _, err := NewAdaptiveTax(AdaptiveTaxConfig{TargetGini: 1.5, Gain: 1}); err == nil {
		t.Error("target gini above 1 accepted")
	}
	if _, err := NewAdaptiveTax(AdaptiveTaxConfig{TargetGini: 0.3, Gain: 0}); err == nil {
		t.Error("zero gain accepted")
	}
	if _, err := NewAdaptiveTax(AdaptiveTaxConfig{TargetGini: 0.3, Gain: 1, MinRate: 0.5, MaxRate: 0.2}); err == nil {
		t.Error("min above max accepted")
	}
	if _, err := NewAdaptiveTax(AdaptiveTaxConfig{TargetGini: 0.3, Gain: 0.5, InitialRate: 0.1}); err != nil {
		t.Errorf("valid adaptive config rejected: %v", err)
	}
}

// TestMintingConstructorsBoundTheStep pins the refusal of a grant or an
// injection above stats.MaxCreditStep: minting it into one balance would
// grow a balance histogram to terabytes and kill the process out of memory.
func TestMintingConstructorsBoundTheStep(t *testing.T) {
	for _, v := range []int64{stats.MaxCreditStep + 1, 1 << 40} {
		if _, err := NewInjection(v); !errors.Is(err, ErrBadPolicy) {
			t.Errorf("injection amount %d: err %v, want ErrBadPolicy", v, err)
		}
		if _, err := NewNewcomerSubsidy(v, false); !errors.Is(err, ErrBadPolicy) {
			t.Errorf("subsidy grant %d: err %v, want ErrBadPolicy", v, err)
		}
	}
	if _, err := NewInjection(stats.MaxCreditStep); err != nil {
		t.Errorf("injection amount at the bound refused: %v", err)
	}
	if _, err := NewNewcomerSubsidy(stats.MaxCreditStep, true); err != nil {
		t.Errorf("subsidy grant at the bound refused: %v", err)
	}
}

// TestIncomeTaxCollectsAboveThresholdOnly pins the threshold gate and the
// conservation of the collect path.
func TestIncomeTaxCollectsAboveThresholdOnly(t *testing.T) {
	it, err := NewIncomeTax(1, 50) // rate 1: every credit above threshold is taxed
	if err != nil {
		t.Fatal(err)
	}
	h := newFakeHost(100, 30)
	e := NewEngine(it)

	e.Income(h, 0, 90, 10) // pre 90 > 50: all 10 taxed
	if h.bal[0] != 90 || h.pot != 10 {
		t.Errorf("above threshold: bal=%d pot=%d, want 90/10", h.bal[0], h.pot)
	}
	e.Income(h, 1, 20, 10) // pre 20 <= 50: untaxed
	if h.bal[1] != 30 || h.pot != 10 {
		t.Errorf("below threshold: bal=%d pot=%d, want 30/10", h.bal[1], h.pot)
	}
	if it.Collected() != 10 {
		t.Errorf("Collected = %d, want 10", it.Collected())
	}
	if got := e.Totals(); got.Collected != 10 || got.Redistributed != 0 || got.Injected != 0 {
		t.Errorf("Totals = %+v", got)
	}
	if h.total() != 130 {
		t.Errorf("credits not conserved: %d", h.total())
	}
}

// TestPipelineOrderAndRemainder: a second taxing stage sees only the income
// the first left over.
func TestPipelineOrderAndRemainder(t *testing.T) {
	first, _ := NewIncomeTax(1, 0)  // takes everything
	second, _ := NewIncomeTax(1, 0) // should see nothing
	h := newFakeHost(100)
	NewEngine(first, second).Income(h, 0, 90, 10)
	if first.Collected() != 10 {
		t.Errorf("first stage collected %d, want 10", first.Collected())
	}
	if second.Collected() != 0 {
		t.Errorf("second stage collected %d, want 0 (remainder exhausted)", second.Collected())
	}
}

// TestRedistributeDrainsWholeRounds pins the rounds rule: pot 25, 10 live
// peers -> 2 credits each, 5 left in the pot.
func TestRedistributeDrainsWholeRounds(t *testing.T) {
	h := newFakeHost(make([]int64, 10)...)
	h.pot = 25
	rd := NewRedistribute()
	rd.OnEpoch(h, 0)
	if h.pot != 5 {
		t.Errorf("pot = %d, want 5", h.pot)
	}
	for i, b := range h.bal {
		if b != 2 {
			t.Errorf("peer %d got %d, want 2", i, b)
		}
	}
	if rd.PaidOut() != 20 {
		t.Errorf("PaidOut = %d, want 20", rd.PaidOut())
	}
	if len(h.woken) != 10 {
		t.Errorf("woke %d peers, want 10", len(h.woken))
	}
}

// TestDemurrageDecaysExcessOnly pins the exemption and the proportional
// levy.
func TestDemurrageDecaysExcessOnly(t *testing.T) {
	d, err := NewDemurrage(0.5, 20)
	if err != nil {
		t.Fatal(err)
	}
	h := newFakeHost(120, 20, 5)
	h.alive[2] = true
	d.OnEpoch(h, 0)
	if h.bal[0] != 70 { // excess 100, levy 50
		t.Errorf("hoarder decayed to %d, want 70", h.bal[0])
	}
	if h.bal[1] != 20 || h.bal[2] != 5 {
		t.Errorf("exempt balances touched: %d, %d", h.bal[1], h.bal[2])
	}
	if h.pot != 50 || d.Collected() != 50 {
		t.Errorf("pot=%d collected=%d, want 50/50", h.pot, d.Collected())
	}
	// Dead peers are skipped.
	h.alive[0] = false
	d.OnEpoch(h, 1)
	if h.bal[0] != 70 {
		t.Errorf("dead peer decayed: %d", h.bal[0])
	}
}

// TestAdaptiveTaxRefusesInfiniteGain pins the gain check: with an infinite
// gain, an epoch whose Gini equals the target computes Inf·0 = NaN, the
// clamps let NaN through, and the next taxed income panicked in Binomial.
func TestAdaptiveTaxRefusesInfiniteGain(t *testing.T) {
	if _, err := NewAdaptiveTax(AdaptiveTaxConfig{Gain: math.Inf(1)}); err == nil {
		t.Fatal("infinite gain accepted")
	}
}

// TestAdaptiveTaxLoadRefusesUnreachableRate restores controller states
// whose rate no run reaches: NaN, or outside [MinRate, MaxRate]. Each must
// be refused; an in-range rate restores.
func TestAdaptiveTaxLoadRefusesUnreachableRate(t *testing.T) {
	cfg := AdaptiveTaxConfig{TargetGini: 0.3, Gain: 0.5, InitialRate: 0.1, MinRate: 0.05, MaxRate: 0.5}
	load := func(rate float64) (*AdaptiveTax, error) {
		src, err := NewAdaptiveTax(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src.rate = rate
		w := snapshot.NewWriter(0)
		src.SaveState(w)
		r, err := snapshot.Open(w.Finish())
		if err != nil {
			t.Fatal(err)
		}
		dst, err := NewAdaptiveTax(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dst, dst.LoadState(r)
	}
	for _, rate := range []float64{math.NaN(), 2, 0.6, 0.01, math.Inf(1)} {
		if _, err := load(rate); err == nil {
			t.Errorf("rate %v restored", rate)
		}
	}
	at, err := load(0.3)
	if err != nil || at.Rate() != 0.3 {
		t.Fatalf("in-range rate: got %v, %v", at.Rate(), err)
	}
}

// TestAdaptiveTaxControllerSteps pins the proportional step and the clamp.
func TestAdaptiveTaxControllerSteps(t *testing.T) {
	at, err := NewAdaptiveTax(AdaptiveTaxConfig{
		TargetGini: 0.5, Gain: 0.1, InitialRate: 0.2, MinRate: 0.05, MaxRate: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Gini of (0, 100) = 0.5 exactly -> zero error, rate unchanged.
	h := newFakeHost(0, 100)
	at.OnEpoch(h, 0)
	if r := at.Rate(); r != 0.2 {
		t.Errorf("rate after zero-error epoch = %v, want 0.2", r)
	}
	// Perfect equality -> error -0.5 -> rate 0.15.
	h = newFakeHost(50, 50)
	at.OnEpoch(h, 1)
	if r := at.Rate(); r < 0.149 || r > 0.151 {
		t.Errorf("rate after equal-wealth epoch = %v, want 0.15", r)
	}
	// Repeated equality clamps at MinRate.
	for i := 0; i < 10; i++ {
		at.OnEpoch(h, float64(i))
	}
	if r := at.Rate(); r != 0.05 {
		t.Errorf("rate not clamped at min: %v", r)
	}
	// Extreme inequality walks the rate up to MaxRate.
	h = newFakeHost(0, 0, 0, 1000)
	for i := 0; i < 20; i++ {
		at.OnEpoch(h, float64(i))
	}
	if r := at.Rate(); r != 0.4 {
		t.Errorf("rate not clamped at max: %v", r)
	}
}

// TestNewcomerSubsidyFunding covers both funding modes and the mid-run
// gate.
func TestNewcomerSubsidyFunding(t *testing.T) {
	minted, _ := NewNewcomerSubsidy(25, false)
	h := newFakeHost(0)
	h.running = false
	minted.OnJoin(h, 0) // initial population: no grant
	if h.bal[0] != 0 {
		t.Errorf("initial-population peer granted %d", h.bal[0])
	}
	h.running = true
	minted.OnJoin(h, 0)
	if h.bal[0] != 25 || minted.Granted() != 25 {
		t.Errorf("minted grant: bal=%d granted=%d", h.bal[0], minted.Granted())
	}
	if tt := NewEngine(minted).Totals(); tt.Injected != 25 {
		t.Errorf("minted subsidy Totals = %+v", tt)
	}

	funded, _ := NewNewcomerSubsidy(25, true)
	h = newFakeHost(0)
	h.pot = 10 // underfunded: grant capped at the pot
	funded.OnJoin(h, 0)
	if h.bal[0] != 10 || h.pot != 0 {
		t.Errorf("pot-funded grant: bal=%d pot=%d, want 10/0", h.bal[0], h.pot)
	}
	if tt := NewEngine(funded).Totals(); tt.Redistributed != 10 || tt.Injected != 0 {
		t.Errorf("pot subsidy Totals = %+v", tt)
	}

	// All extends the subsidy to the initial population.
	all, _ := NewNewcomerSubsidy(5, false)
	all.All = true
	h = newFakeHost(0)
	h.running = false
	all.OnJoin(h, 0)
	if h.bal[0] != 5 {
		t.Errorf("All subsidy skipped initial peer: %d", h.bal[0])
	}
}

// TestInjectionMintsPerEpoch pins the per-epoch sweep and the counter.
func TestInjectionMintsPerEpoch(t *testing.T) {
	in, err := NewInjection(3)
	if err != nil {
		t.Fatal(err)
	}
	h := newFakeHost(0, 10, 0)
	h.alive[1] = false
	in.OnEpoch(h, 0)
	if h.bal[0] != 3 || h.bal[1] != 10 || h.bal[2] != 3 {
		t.Errorf("balances after injection: %v", h.bal)
	}
	if in.Injected() != 6 {
		t.Errorf("Injected = %d, want 6", in.Injected())
	}
}

// TestIncomeTaxUnitIncomeIsOneUniformDraw pins the draw the market's unit
// incomes take: for rates up to 0.5 a one-credit income is taxed exactly
// when one uniform variate falls below the rate, and nothing else is drawn
// — the same single comparison as a per-credit Bernoulli trial, which is
// why fig9 and inflation kept their bytes when the market's taxation moved
// onto this stage.
func TestIncomeTaxUnitIncomeIsOneUniformDraw(t *testing.T) {
	for _, rate := range []float64{0.1, 0.25, 0.5} {
		it, err := NewIncomeTax(rate, 0)
		if err != nil {
			t.Fatal(err)
		}
		h := newFakeHost(1 << 20)
		h.rng = xrand.New(41)
		twin := xrand.New(41)
		taxedAny := false
		for i := 0; i < 2000; i++ {
			pot := h.pot
			h.bal[0]++ // the income lands
			it.OnIncome(h, 0, 10, 1)
			want := twin.Float64() < rate
			if got := h.pot > pot; got != want {
				t.Fatalf("rate %v, income %d: taxed %v, one uniform draw says %v", rate, i, got, want)
			}
			taxedAny = taxedAny || want
		}
		if !taxedAny {
			t.Fatalf("rate %v: nothing taxed; test vacuous", rate)
		}
		if h.rng.Float64() != twin.Float64() {
			t.Fatalf("rate %v: the stage drew more than one variate per income", rate)
		}
	}
}

// TestIncomeTaxRateInExpectation checks that unit incomes are taxed at the
// declared rate on average.
func TestIncomeTaxRateInExpectation(t *testing.T) {
	it, err := NewIncomeTax(0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := newFakeHost(0)
	h.rng = xrand.New(11)
	const trials = 20000
	for i := 0; i < trials; i++ {
		h.bal[0]++
		it.OnIncome(h, 0, 1000, 1)
	}
	if got := float64(it.Collected()) / trials; math.Abs(got-0.3) > 0.01 {
		t.Errorf("effective tax rate = %v, want ~0.3", got)
	}
	if it.Collected() != h.pot {
		t.Errorf("Collected = %d, pot holds %d", it.Collected(), h.pot)
	}
}

// TestTaxUnderInjection pins the taxation/injection interplay on the
// Sec. VI-C pipeline: minted credits raise balances past the threshold, so
// later income is taxed, and the pot accounting (collected = paid out +
// pot) holds through interleaved minting, taxation and redistribution.
func TestTaxUnderInjection(t *testing.T) {
	it, err := NewIncomeTax(1, 8) // deterministic: every credit above 8 is taxed
	if err != nil {
		t.Fatal(err)
	}
	rd := NewRedistribute()
	inj, err := NewInjection(6)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(it, rd, inj)
	h := newFakeHost(5, 5, 5, 5)
	income := func(px int32, amount int64) {
		pre := h.bal[px]
		h.bal[px] += amount
		e.Income(h, px, pre, amount)
	}

	// Below the threshold, income is untaxed.
	income(0, 1)
	if it.Collected() != 0 {
		t.Fatalf("taxed %d below threshold", it.Collected())
	}
	// An injection round pushes every peer over the threshold.
	e.Epoch(h, 1)
	if h.bal[0] != 12 || h.bal[1] != 11 {
		t.Fatalf("balances after injection: %v", h.bal)
	}
	// Income on the inflated balance is taxed at the full rate, and a pot
	// of 3 does not fill a 4-peer round.
	income(0, 3)
	if it.Collected() != 3 || h.pot != 3 || rd.PaidOut() != 0 {
		t.Fatalf("collected/pot/paid = %d/%d/%d, want 3/3/0", it.Collected(), h.pot, rd.PaidOut())
	}
	// More taxed income completes one round, leaving 1 in the pot.
	income(1, 2)
	if rd.PaidOut() != 4 || h.pot != 1 {
		t.Fatalf("paid/pot = %d/%d after one round, want 4/1", rd.PaidOut(), h.pot)
	}
	if it.Collected() != rd.PaidOut()+h.pot {
		t.Fatalf("accounting drifted: collected %d != paid %d + pot %d", it.Collected(), rd.PaidOut(), h.pot)
	}
	// Zero-amount income is never taxed, inflated balance or not.
	income(2, 0)
	if it.Collected() != 5 {
		t.Fatalf("zero income taxed: collected %d", it.Collected())
	}
	if want := int64(4*5 + 1 + 4*6 + 3 + 2); h.total() != want {
		t.Fatalf("credits: %d, want %d (endowment + income + minted)", h.total(), want)
	}
}

// TestComposedSustainabilityLoop runs a small closed loop: demurrage
// collects from a hoarder, a pot-funded subsidy pays a newcomer, the
// redistributor drains the rest — verifying the shared-pot composition
// semantics and conservation.
func TestComposedSustainabilityLoop(t *testing.T) {
	d, _ := NewDemurrage(0.5, 0)
	sub, _ := NewNewcomerSubsidy(30, true)
	rd := NewRedistribute()
	e := NewEngine(d, sub, rd)
	h := newFakeHost(200, 0, 0, 0)
	before := h.total()

	e.Epoch(h, 1) // demurrage collects 100; redistribute pays 25 each
	if h.pot != 0 {
		t.Errorf("pot after epoch = %d, want 0 (4 live peers, 100 pot)", h.pot)
	}
	if h.bal[1] != 25 {
		t.Errorf("peer 1 after redistribution = %d, want 25", h.bal[1])
	}

	e.Epoch(h, 2) // hoarder (now 125) decays 62; 62/4 = 15 each, 2 left
	if h.pot != 2 {
		t.Errorf("pot after second epoch = %d, want 2", h.pot)
	}
	e.Joined(h, 3) // pot-funded subsidy: only 2 available
	if h.pot != 0 {
		t.Errorf("subsidy left pot at %d", h.pot)
	}
	if h.total() != before {
		t.Errorf("credits not conserved: %d -> %d", before, h.total())
	}
	tt := e.Totals()
	if tt.Collected == 0 || tt.Redistributed != tt.Collected {
		t.Errorf("Totals = %+v, want redistributed == collected (pot empty)", tt)
	}
}
