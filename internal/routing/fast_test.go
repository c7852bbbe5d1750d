package routing

import (
	"math"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// testGraph builds the hand-checkable topology used below:
//
//	    10 ------- 20          tier-1 peer clique
//	   /  \       /| \
//	 30    40   50 65 60       tier-2 customers
//	 |       \  /       \
//	100       70        200    edge (200 is also a customer of 65)
//
// 100 is the victim V; various ASes play the attacker M.
func testGraph(t testing.TB) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{
		{10, 30}, {10, 40}, {20, 50}, {20, 60}, {20, 65},
		{30, 100}, {40, 70}, {50, 70}, {60, 200}, {65, 200},
	} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatalf("AddP2C(%v): %v", e, err)
		}
	}
	if err := b.AddP2P(10, 20); err != nil {
		t.Fatalf("AddP2P: %v", err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func mustPropagate(t testing.TB, g *topology.Graph, ann Announcement) *Result {
	t.Helper()
	res, err := Propagate(g, ann)
	if err != nil {
		t.Fatalf("Propagate: %v", err)
	}
	return res
}

func pathString(t testing.TB, r *Result, asn bgp.ASN) string {
	t.Helper()
	return r.PathOf(asn).String()
}

func TestPropagateBaseline(t *testing.T) {
	g := testGraph(t)
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 3})

	wantPaths := map[bgp.ASN]string{
		30:  "100 100 100",
		10:  "30 100 100 100",
		40:  "10 30 100 100 100",
		20:  "10 30 100 100 100",
		50:  "20 10 30 100 100 100",
		60:  "20 10 30 100 100 100",
		65:  "20 10 30 100 100 100",
		70:  "40 10 30 100 100 100",
		200: "60 20 10 30 100 100 100",
	}
	for asn, want := range wantPaths {
		if got := pathString(t, res, asn); got != want {
			t.Errorf("PathOf(%v) = %q, want %q", asn, got, want)
		}
	}

	wantClass := map[bgp.ASN]Class{
		30: ClassCustomer, 10: ClassCustomer,
		20: ClassPeer,
		40: ClassProvider, 50: ClassProvider, 60: ClassProvider,
		65: ClassProvider, 70: ClassProvider, 200: ClassProvider,
	}
	for asn, want := range wantClass {
		i, _ := g.Index(asn)
		if got := res.Class[i]; got != want {
			t.Errorf("Class[%v] = %v, want %v", asn, got, want)
		}
	}

	// 70 is a customer of both 40 and 50; paths are len 6 vs len 7, so 40
	// wins on length. 200 ties via 60 and 65 at len 7; 60 wins on ASN.
	i200, _ := g.Index(200)
	if res.Parent[i200] != mustIdx(t, g, 60) {
		t.Errorf("200's parent = %v, want 60", g.ASNAt(res.Parent[i200]))
	}

	// Prepend bookkeeping.
	for _, asn := range []bgp.ASN{30, 20, 200} {
		i, _ := g.Index(asn)
		if res.Prep[i] != 3 {
			t.Errorf("Prep[%v] = %d, want 3", asn, res.Prep[i])
		}
	}
	if got := res.HopsToOrigin(200); got != 5 {
		t.Errorf("HopsToOrigin(200) = %d, want 5", got)
	}
}

func mustIdx(t testing.TB, g *topology.Graph, asn bgp.ASN) int32 {
	t.Helper()
	i, ok := g.Index(asn)
	if !ok {
		t.Fatalf("AS %v not in graph", asn)
	}
	return i
}

func TestPropagateValleyFreeDominance(t *testing.T) {
	// The victim multihomes to 30 (λ=1) and 40 (λ=5). 40 must keep its
	// direct customer route despite its length: class beats length.
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{{10, 30}, {10, 40}, {30, 100}, {40, 100}} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := mustPropagate(t, g, Announcement{
		Origin:      100,
		Prepend:     1,
		PerNeighbor: map[bgp.ASN]int{30: 1, 40: 5},
	})
	if got := pathString(t, res, 40); got != "100 100 100 100 100" {
		t.Errorf("PathOf(40) = %q, want direct padded customer route", got)
	}
	// 10 chooses the shorter customer route via 30.
	if got := pathString(t, res, 10); got != "30 100" {
		t.Errorf("PathOf(10) = %q, want \"30 100\"", got)
	}
	i40, _ := g.Index(40)
	if res.Prep[i40] != 5 {
		t.Errorf("Prep[40] = %d, want 5", res.Prep[i40])
	}
}

func TestPropagateUnreachable(t *testing.T) {
	// An isolated AS must end up with no route.
	b := topology.NewBuilder()
	if err := b.AddP2C(10, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.AddAS(999); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 2})
	if res.Reachable(999) {
		t.Error("isolated AS reported reachable")
	}
	if res.PathOf(999) != nil {
		t.Error("isolated AS has a path")
	}
	if got := res.ReachableCount(); got != 1 {
		t.Errorf("ReachableCount = %d, want 1", got)
	}
}

func TestPropagateInputValidation(t *testing.T) {
	g := testGraph(t)
	cases := []Announcement{
		{Origin: 12345, Prepend: 1},                                     // unknown origin
		{Origin: 100, Prepend: 0},                                       // bad λ
		{Origin: 100, Prepend: 1, PerNeighbor: map[bgp.ASN]int{30: -1}}, // bad per-neighbor λ
		{Origin: 100, Prepend: 1, PerNeighbor: map[bgp.ASN]int{999: 2}}, // non-neighbor
	}
	for i, ann := range cases {
		if _, err := Propagate(g, ann); err == nil {
			t.Errorf("case %d: Propagate accepted invalid announcement", i)
		}
	}
}

// TestLambdaBounds: a route's Prep is an int16, so Validate rejects a λ,
// a per-neighbor λ or a KeepPrepend above math.MaxInt16 instead of letting
// it wrap (λ 65,537 would read as 1, KeepPrepend 65,536 as an origin
// hijack's 0); math.MaxInt16 itself propagates exactly. Chain 1←2←3, 3
// the origin.
func TestLambdaBounds(t *testing.T) {
	b := topology.NewBuilder()
	for _, e := range [][2]bgp.ASN{{1, 2}, {2, 3}} {
		if err := b.AddP2C(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	const top = math.MaxInt16
	for _, ann := range []Announcement{
		{Origin: 3, Prepend: top + 1},
		{Origin: 3, Prepend: 1<<16 + 1},
		{Origin: 3, Prepend: 1, PerNeighbor: map[bgp.ASN]int{2: top + 1}},
	} {
		if _, err := Propagate(g, ann); err == nil {
			t.Errorf("%+v accepted", ann)
		}
	}
	ann := Announcement{Origin: 3, Prepend: 2, PerNeighbor: map[bgp.ASN]int{2: top}}
	for _, keep := range []int{top + 1, 1 << 16} {
		if _, err := PropagateAttackScratch(g, ann, Attacker{AS: 2, KeepPrepend: keep}, nil, nil); err == nil {
			t.Errorf("KeepPrepend %d accepted", keep)
		}
	}
	for _, atk := range []*Attacker{nil, {AS: 2, KeepPrepend: top}} {
		var res *Result
		if atk == nil {
			res, err = Propagate(g, ann)
		} else {
			res, err = PropagateAttackScratch(g, ann, *atk, nil, nil)
		}
		if err != nil {
			t.Fatalf("attacker %v: %v", atk, err)
		}
		for asn, hops := range map[bgp.ASN]int{2: 0, 1: 1} {
			i, _ := g.Index(asn)
			if p := res.PathOf(asn); res.Prep[i] != top || len(p) != hops+top || p[len(p)-1] != 3 {
				t.Errorf("attacker %v: AS%v has Prep %d and a %d-ASN path, want %d and %d", atk, asn, res.Prep[i], len(p), top, hops+top)
			}
		}
	}
}

func TestAttackStripViaPeerProvider(t *testing.T) {
	// Attacker 50 (tier-2) strips V's three prepends. Its provider-learned
	// route may only go down, to customer 70, whose alternative via 40 is
	// length 6; the stripped route via 50 is length 5, so 70 switches.
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 3}
	base := mustPropagate(t, g, ann)
	res, err := PropagateAttackScratch(g, ann, Attacker{AS: 50}, base, nil)
	if err != nil {
		t.Fatalf("PropagateAttack: %v", err)
	}
	if got := pathString(t, res, 70); got != "50 20 10 30 100" {
		t.Errorf("PathOf(70) = %q, want stripped route via 50", got)
	}
	i70, _ := g.Index(70)
	if !res.Via[i70] {
		t.Error("70 not marked polluted")
	}
	if got := res.PollutedCount(); got != 1 {
		t.Errorf("PollutedCount = %d, want 1 (only 70)", got)
	}
	// Before the attack nobody routed via 50.
	if got := base.CountVia(50); got != 0 {
		t.Errorf("baseline CountVia(50) = %d, want 0", got)
	}
	// The attacker's own path must be its baseline path.
	if got, want := pathString(t, res, 50), pathString(t, base, 50); got != want {
		t.Errorf("attacker path changed: %q vs %q", got, want)
	}
}

func TestAttackCustomerRouteStripsUpward(t *testing.T) {
	// Attacker 30 is V's only provider: its stripped customer route
	// shortens everyone's path; prepends collapse to 1 everywhere beyond.
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 3}
	res, err := PropagateAttackScratch(g, ann, Attacker{AS: 30}, nil, nil)
	if err != nil {
		t.Fatalf("PropagateAttack: %v", err)
	}
	if got := pathString(t, res, 20); got != "10 30 100" {
		t.Errorf("PathOf(20) = %q, want \"10 30 100\"", got)
	}
	i20, _ := g.Index(20)
	if res.Prep[i20] != 1 {
		t.Errorf("Prep[20] = %d, want 1 after strip", res.Prep[i20])
	}
	// All ASes except V and M route via M (single-homed victim).
	if got, want := res.PollutedCount(), g.NumASes()-2; got != want {
		t.Errorf("PollutedCount = %d, want %d", got, want)
	}
	// The attacker still sees the original prepends on its own route.
	i30, _ := g.Index(30)
	if res.Prep[i30] != 3 {
		t.Errorf("Prep[30] = %d, want 3 (attacker sees original)", res.Prep[i30])
	}
}

func TestAttackValleyFreeFollowVsViolate(t *testing.T) {
	// Attacker 200 is a stub with providers 60 and 65; its route is
	// provider-learned via 60 (tie on length, lower ASN). Following
	// valley-free it cannot export at all (no customers): zero pollution.
	// Violating, it exports the stripped route upward; 60 is on its own
	// path (loop -> rejected) but 65 accepts a customer-class route and
	// switches, despite the longer path class dominance.
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 3}
	base := mustPropagate(t, g, ann)

	follow, err := PropagateAttackScratch(g, ann, Attacker{AS: 200}, base, nil)
	if err != nil {
		t.Fatalf("PropagateAttackScratch(follow, nil): %v", err)
	}
	if got := follow.PollutedCount(); got != 0 {
		t.Errorf("follow PollutedCount = %d, want 0", got)
	}

	violate, err := PropagateAttackScratch(g, ann, Attacker{AS: 200, ViolateValleyFree: true}, base, nil)
	if err != nil {
		t.Fatalf("PropagateAttackScratch(violate, nil): %v", err)
	}
	if got := pathString(t, violate, 65); got != "200 60 20 10 30 100" {
		t.Errorf("PathOf(65) = %q, want injected route via 200", got)
	}
	i65, _ := g.Index(65)
	if violate.Class[i65] != ClassCustomer {
		t.Errorf("Class[65] = %v, want customer (violation masquerades as customer route)", violate.Class[i65])
	}
	// 60 must have rejected the loop and kept its baseline route.
	if got := pathString(t, violate, 60); got != "20 10 30 100 100 100" {
		t.Errorf("PathOf(60) = %q, want baseline", got)
	}
	if got := violate.PollutedCount(); got != 1 {
		t.Errorf("violate PollutedCount = %d, want 1 (only 65)", got)
	}
}

func TestAttackUnreachableAttacker(t *testing.T) {
	b := topology.NewBuilder()
	if err := b.AddP2C(10, 100); err != nil {
		t.Fatal(err)
	}
	if err := b.AddAS(999); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ann := Announcement{Origin: 100, Prepend: 3}
	if _, err := PropagateAttackScratch(g, ann, Attacker{AS: 999}, nil, nil); err != ErrUnreachableAttacker {
		t.Errorf("err = %v, want ErrUnreachableAttacker", err)
	}
}

func TestAttackValidation(t *testing.T) {
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 3}
	if _, err := PropagateAttackScratch(g, ann, Attacker{AS: 100}, nil, nil); err == nil {
		t.Error("attacker == origin accepted")
	}
	if _, err := PropagateAttackScratch(g, ann, Attacker{AS: 4242}, nil, nil); err == nil {
		t.Error("unknown attacker accepted")
	}
	if _, err := PropagateAttackScratch(g, ann, Attacker{AS: 50, KeepPrepend: -1}, nil, nil); err == nil {
		t.Error("negative KeepPrepend accepted")
	}
}

func TestAttackKeepPrepend(t *testing.T) {
	// KeepPrepend=2 leaves two origin copies after stripping.
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 4}
	res, err := PropagateAttackScratch(g, ann, Attacker{AS: 30, KeepPrepend: 2}, nil, nil)
	if err != nil {
		t.Fatalf("PropagateAttack: %v", err)
	}
	if got := pathString(t, res, 10); got != "30 100 100" {
		t.Errorf("PathOf(10) = %q, want two origin copies", got)
	}
}

func TestAttackNoOpWhenLambdaOne(t *testing.T) {
	// With λ=1 there is nothing to strip: outcome must equal baseline,
	// with Via matching the baseline via set.
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 1}
	base := mustPropagate(t, g, ann)
	res, err := PropagateAttackScratch(g, ann, Attacker{AS: 50}, base, nil)
	if err != nil {
		t.Fatalf("PropagateAttack: %v", err)
	}
	for i := range res.Len {
		if res.Len[i] != base.Len[i] || res.Parent[i] != base.Parent[i] {
			t.Fatalf("AS %v differs from baseline with nothing to strip", g.ASNAt(int32(i)))
		}
	}
	baseVia := base.ViaSet(50)
	for i, v := range res.Via {
		if v != baseVia[i] {
			t.Errorf("Via[%v] = %v, want baseline %v", g.ASNAt(int32(i)), v, baseVia[i])
		}
	}
}

func TestViaSetMatchesPaths(t *testing.T) {
	g := testGraph(t)
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 2})
	for _, probe := range []bgp.ASN{10, 20, 30, 50} {
		via := res.ViaSet(probe)
		for i := int32(0); i < int32(g.NumASes()); i++ {
			asn := g.ASNAt(i)
			want := false
			if asn != probe {
				want = res.PathOfIdx(i).Contains(probe)
			}
			if via[i] != want {
				t.Errorf("ViaSet(%v)[%v] = %v, want %v", probe, asn, via[i], want)
			}
		}
	}
}

func TestPropagateDeterministic(t *testing.T) {
	g := testGraph(t)
	ann := Announcement{Origin: 100, Prepend: 3}
	r1 := mustPropagate(t, g, ann)
	r2 := mustPropagate(t, g, ann)
	for i := range r1.Len {
		if r1.Len[i] != r2.Len[i] || r1.Parent[i] != r2.Parent[i] || r1.Class[i] != r2.Class[i] {
			t.Fatalf("nondeterministic result at index %d", i)
		}
	}
}
