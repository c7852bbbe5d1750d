package routing

import (
	"errors"
	"fmt"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// siblingGraph models the paper's Fig. 11 anomaly in miniature:
//
//	T1a(10) -- T1b(20) -- V(30)        tier-1 clique; V is the victim
//	  |           |
//	 P(40)      Q(50)                  transit under the tier-1s
//	  |           |
//	 M(60)      E(70)                  M: small attacker; E: bystander
//	  |
//	 X(90) ~~~ sibling of V(30)        X buys transit from M
func siblingGraph(t testing.TB) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 40}, {20, 50}, {40, 60}, {50, 70}, {60, 90},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]bgp.ASN{{10, 20}, {10, 30}, {20, 30}} {
		if err := b.AddP2P(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddS2S(30, 90); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSiblingTopology(t *testing.T) {
	g := siblingGraph(t)
	if !g.HasSiblings() {
		t.Fatal("HasSiblings = false")
	}
	if got := g.RelOf(30, 90); got != topology.RelSibling {
		t.Errorf("RelOf(30,90) = %v, want sibling", got)
	}
	if got := neighborASNs(g, 30, g.SiblingsIdx); len(got) != 1 || got[0] != 90 {
		t.Errorf("Siblings(30) = %v, want [90]", got)
	}
}

// TestFastEngineRoutesSiblings: on the Fig. 11 miniature the full kernel
// agrees with the reference engine row for row, baseline and attack, and
// the incremental engine keeps refusing the graph.
func TestFastEngineRoutesSiblings(t *testing.T) {
	g := siblingGraph(t)
	s := NewScratch()
	for lambda := 1; lambda <= 6; lambda++ {
		ann := Announcement{Origin: 30, Prepend: lambda}
		base, err := PropagateScratch(g, ann, s)
		if err != nil {
			t.Fatalf("λ=%d: PropagateScratch: %v", lambda, err)
		}
		want, err := PropagateReference(g, ann, nil)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, g, base, want, fmt.Sprintf("λ=%d baseline", lambda))
		for _, violate := range []bool{false, true} {
			atk := Attacker{AS: 60, ViolateValleyFree: violate}
			got, err := PropagateAttackScratch(g, ann, atk, base, s)
			if err != nil {
				t.Fatalf("λ=%d: PropagateAttackScratch: %v", lambda, err)
			}
			want, err := PropagateReference(g, ann, &atk)
			if err != nil {
				t.Fatal(err)
			}
			compareResults(t, g, got, want, fmt.Sprintf("λ=%d violate=%v", lambda, violate))
		}
	}
	if _, err := PropagateAttackDelta(g, Announcement{Origin: 30, Prepend: 2}, Attacker{AS: 60}, nil, s); !errors.Is(err, ErrSiblingsNeedFullKernel) {
		t.Errorf("PropagateAttackDelta err = %v, want ErrSiblingsNeedFullKernel", err)
	}
}

func TestReferenceSiblingTransit(t *testing.T) {
	// V announces with λ=4. The sibling X re-exports the organizational
	// route upward: M learns [90 30 30 30 30] from its customer X, so M
	// has a customer-class route to V despite V being a tier-1.
	g := siblingGraph(t)
	res, err := PropagateReference(g, Announcement{Origin: 30, Prepend: 4}, nil)
	if err != nil {
		t.Fatalf("PropagateReference: %v", err)
	}
	i60, _ := g.Index(60)
	if res.Class[i60] != ClassCustomer {
		t.Fatalf("M's class = %v, want customer (via sibling)", res.Class[i60])
	}
	if got := res.PathOf(60).String(); got != "90 30 30 30 30" {
		t.Errorf("M's path = %q, want via sibling X", got)
	}
	// The bystander E, far from the sibling, keeps a normal route.
	if got := res.PathOf(70).String(); got != "50 20 30 30 30 30" {
		t.Errorf("E's path = %q", got)
	}
	// X itself uses the direct organizational link.
	if got := res.PathOf(90).String(); got != "30 30 30 30" {
		t.Errorf("X's path = %q", got)
	}
}

func TestReferenceSiblingValleyFreeInterception(t *testing.T) {
	// The Fig. 11 mechanics: M strips V's prepends and, because its route
	// is customer-learned, exports the bogus route UP to its provider P
	// without violating any export rule. P's peers and their cones switch.
	g := siblingGraph(t)
	ann := Announcement{Origin: 30, Prepend: 4}
	atk := Attacker{AS: 60}
	res, err := PropagateReference(g, ann, &atk)
	if err != nil {
		t.Fatalf("PropagateReference: %v", err)
	}
	// P(40) hears [60 90 30] (customer route, stripped) and must prefer
	// it over its provider route to V by class.
	if got := res.PathOf(40).String(); got != "60 90 30" {
		t.Errorf("P's path = %q, want the stripped customer route", got)
	}
	i40, _ := g.Index(40)
	if res.Class[i40] != ClassCustomer {
		t.Errorf("P's class = %v, want customer", res.Class[i40])
	}
	// T1a(10) hears P's customer route [40 60 90 30] (len 4) and compares
	// with its peer route to V [30 30 30 30] (len 4): equal length, but
	// customer class wins.
	if got := res.PathOf(10).String(); got != "40 60 90 30" {
		t.Errorf("T1a's path = %q, want via the attacker", got)
	}
	// Pollution: 40 and 10 switch, plus anyone below them.
	atkASN := bgp.ASN(60)
	polluted := 0
	for _, asn := range g.ASNs() {
		if asn == atkASN || asn == 30 {
			continue
		}
		if res.PathOf(asn).Contains(atkASN) {
			polluted++
		}
	}
	if polluted < 2 {
		t.Errorf("only %d ASes polluted; sibling-enabled interception failed", polluted)
	}
}

func TestReferenceSiblingLoopSafety(t *testing.T) {
	// Organizational routes must not loop between siblings; every path in
	// the stable state is loop-free.
	g := siblingGraph(t)
	for _, lambda := range []int{1, 3, 6} {
		res, err := PropagateReference(g, Announcement{Origin: 30, Prepend: lambda}, nil)
		if err != nil {
			t.Fatalf("λ=%d: %v", lambda, err)
		}
		for _, asn := range g.ASNs() {
			if p := res.PathOf(asn); hasLoop(p) {
				t.Errorf("λ=%d: %v has loop %v", lambda, asn, p)
			}
		}
	}
}
