package shard

import (
	"fmt"
	"reflect"
	"testing"

	"creditp2p/internal/des"
	"creditp2p/internal/policy"
	"creditp2p/internal/topology"
)

// idleWorkload schedules nothing: the lifecycle test drives the barrier
// directly.
type idleWorkload struct{}

func (idleWorkload) Setup(*Engine) error      { return nil }
func (idleWorkload) Arm(*Lane, int32)         {}
func (idleWorkload) OnEvent(*Lane, des.Event) {}
func (idleWorkload) Digest() uint64           { return 0 }
func (idleWorkload) CounterNames() []string   { return nil }

// lifeRecorder logs the join and depart hooks in the order the barrier
// applies them.
type lifeRecorder struct {
	policy.Base
	log []string
}

func (r *lifeRecorder) OnJoin(_ policy.Host, g int32) {
	r.log = append(r.log, fmt.Sprintf("join %d", g))
}

func (r *lifeRecorder) OnDepart(_ policy.Host, g int32) {
	r.log = append(r.log, fmt.Sprintf("depart %d", g))
}

// TestLifecycleTieOrder pins the barrier's lifecycle order at exact ties,
// which continuous draws never produce: same-instant deltas of peers on
// different lanes apply by peer, and one peer's departure and rejoin at
// the same instant apply departure first, whatever order the lane
// buffered them in. The applied order is the same at P=1 and P=3.
func TestLifecycleTieOrder(t *testing.T) {
	type delta struct {
		t    float64
		g    int32
		kind uint16
	}
	// Buffered in this order, per owning lane.
	deltas := []delta{
		{1.0, 7, KindDepart},
		{1.0, 4, KindRejoin},
		{1.0, 4, KindDepart},
		{1.0, 1, KindRejoin},
		{0.5, 8, KindRejoin},
		{1.0, 2, KindDepart},
		{0.5, 0, KindDepart},
	}
	want := []string{"depart 0", "join 8", "join 1", "depart 2", "depart 4", "join 4", "depart 7"}
	g, err := topology.Complete(9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 3} {
		rec := &lifeRecorder{}
		e, err := New(Config{
			Graph:    g,
			Shards:   p,
			Horizon:  10,
			Window:   2,
			Seed:     1,
			Policies: []policy.Policy{rec},
			Workload: idleWorkload{},
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		if p > 1 && e.part.ShardOf(0) == e.part.ShardOf(7) {
			t.Fatal("peers 0 and 7 share a lane; the ties do not cross lanes")
		}
		rec.log = nil
		for _, d := range deltas {
			e.lanes[e.part.ShardOf(d.g)].life.Add(lifeDelta(d.t, d.g, d.kind))
		}
		e.barrier(2)
		if !reflect.DeepEqual(rec.log, want) {
			t.Errorf("P=%d: applied %q, want %q", p, rec.log, want)
		}
		if e.departures != 4 || e.joins != 3 {
			t.Errorf("P=%d: counted %d departures and %d joins, want 4 and 3", p, e.departures, e.joins)
		}
	}
}
