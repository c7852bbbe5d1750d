package collector

import (
	"net/netip"
	"slices"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

func streamFixture(t *testing.T) (*topology.Graph, *core.Impact, netip.Prefix) {
	t.Helper()
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 50}, {30, 100}, {40, 70}, {50, 70},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddP2P(10, 20); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	im, err := core.Simulate(g, core.Scenario{Victim: 100, Attacker: 50, Prepend: 3})
	if err != nil {
		t.Fatal(err)
	}
	return g, im, netip.MustParsePrefix("10.9.0.0/16")
}

// TestStreamTransitionFromNil: a transition from no route announces the
// steady-state table — every monitor with a route, its baseline route to
// the prefix, sorted by monitor whatever order the monitors came in.
func TestStreamTransitionFromNil(t *testing.T) {
	g, im, pfx := streamFixture(t)
	monitors := slices.Clone(g.ASNs())
	slices.Reverse(monitors)
	updates, err := StreamTransition(nil, im.Baseline(), pfx, monitors, 7)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, m := range monitors {
		if im.Baseline().PathOf(m) != nil {
			routed++
		}
	}
	if len(updates) == 0 || len(updates) != routed {
		t.Fatalf("got %d updates, want one per routed monitor (%d)", len(updates), routed)
	}
	for i, u := range updates {
		if i > 0 && updates[i-1].Monitor >= u.Monitor {
			t.Fatal("steady state not sorted by monitor")
		}
		if u.Type != bgp.Announce || u.Time != 7+uint64(i)+1 || u.Prefix != pfx || !u.Path.Equal(im.Baseline().PathOf(u.Monitor)) {
			t.Errorf("update %d = %+v, want %v's baseline route to %v at time %d", i, u, u.Monitor, pfx, 7+i+1)
		}
	}
}

func TestStreamTransition(t *testing.T) {
	g, im, pfx := streamFixture(t)
	monitors := g.ASNs()
	updates, err := StreamTransition(im.Baseline(), im.Attacked(), pfx, monitors, 100)
	if err != nil {
		t.Fatalf("StreamTransition: %v", err)
	}
	// Only 70 switches routes in this scenario (see routing tests).
	if len(updates) != 1 {
		t.Fatalf("got %d updates, want 1: %v", len(updates), updates)
	}
	u := updates[0]
	if u.Monitor != 70 || u.Type != bgp.Announce || u.Time != 101 {
		t.Errorf("update = %+v", u)
	}
	if u.Path.String() != "50 20 10 30 100" {
		t.Errorf("update path = %q", u.Path)
	}
	if err := u.Validate(); err != nil {
		t.Errorf("emitted invalid update: %v", err)
	}
}

func TestStreamTransitionWithdraw(t *testing.T) {
	// Failing the victim's only upstream withdraws it everywhere.
	g, _, pfx := streamFixture(t)
	ann := routing.Announcement{Origin: 100, Prepend: 2}
	before, err := routing.Propagate(g, ann)
	if err != nil {
		t.Fatal(err)
	}
	ann.PerNeighbor = map[bgp.ASN]int{30: 0}
	after, err := routing.Propagate(g, ann)
	if err != nil {
		t.Fatal(err)
	}
	updates, err := StreamTransition(before, after, pfx, g.ASNs(), 0)
	if err != nil {
		t.Fatal(err)
	}
	withdraws := 0
	for _, u := range updates {
		if u.Type == bgp.Withdraw {
			withdraws++
		}
	}
	if withdraws == 0 {
		t.Errorf("no withdrawals in %v", updates)
	}
	// Times strictly increase.
	for i := 1; i < len(updates); i++ {
		if updates[i].Time <= updates[i-1].Time {
			t.Error("update times not increasing")
		}
	}
}

func TestStreamTransitionInvalidPrefix(t *testing.T) {
	_, im, _ := streamFixture(t)
	if _, err := StreamTransition(im.Baseline(), im.Attacked(), netip.Prefix{}, nil, 0); err == nil {
		t.Error("invalid prefix accepted")
	}
}
