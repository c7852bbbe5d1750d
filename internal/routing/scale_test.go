package routing

import (
	"fmt"
	"os"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// TestScale80kKernelStable holds the full kernel to checkStable on the
// canonical internet80k graph, where four ASes in five are leaves that phase
// 3 settles in its tail loop: 16 baselines, from leaf and transit origins
// and one with a per-neighbour λ and a withheld session toward leaf
// customers, and 16 attack legs — leaf strip attackers following and
// violating valley-free export, leaf forgers of both kinds, and cautious
// legs with leaf deployers. Gated behind ASPP_SCALE=1 (make scale-smoke).
func TestScale80kKernelStable(t *testing.T) {
	if os.Getenv("ASPP_SCALE") == "" {
		t.Skip("80k scale run gated behind ASPP_SCALE=1 (make scale-smoke)")
	}
	g, err := topology.Generate(topology.InternetGenConfig(topology.Internet80kASes))
	if err != nil {
		t.Fatal(err)
	}
	n, nl := int32(g.NumASes()), g.NumLeaves()
	asn := g.ASNAt
	// Leaves spread over their range run from single- to multi-homed (the
	// range is sorted by provider count); transit ASes spread over theirs
	// run from the bottom of the hierarchy to the core.
	var anns []Announcement
	for k := int32(0); k < 8; k++ {
		anns = append(anns,
			Announcement{Origin: asn(k * nl / 8), Prepend: 1 + int(k)%4},
			Announcement{Origin: asn(nl + k*(n-nl)/8), Prepend: 1 + int(k)%4})
	}
	for u := nl; u < n; u++ {
		if cs := g.CustomersIdx(u); len(cs) > 1 && cs[1] < nl {
			anns[len(anns)-1] = Announcement{Origin: asn(u), Prepend: 3,
				PerNeighbor: map[bgp.ASN]int{asn(cs[0]): 6, asn(cs[1]): 0}}
			break
		}
	}
	if anns[len(anns)-1].PerNeighbor == nil {
		t.Fatal("no transit AS with two leaf customers")
	}

	s := NewScratch()
	checkRows := func(label string, runs bool) {
		t.Helper()
		if rows := s.RowsDown(); rows == 0 || rows%int64(n) != 0 || !runs && rows != int64(n) {
			t.Fatalf("%s: RowsDown %d on %d ASes", label, rows, n)
		}
	}
	for _, ann := range anns {
		res, err := PropagateScratch(g, ann, s)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("baseline V=%v λ=%d", ann.Origin, ann.Prepend)
		checkRows(label, false)
		checkStable(t, g, res, ann, nil, nil)
		if t.Failed() {
			t.Fatalf("%s: not a stable state", label)
		}
	}

	// Attack legs: multi-homed leaf attackers and forgers from the top of the
	// leaf range, against leaf and transit origins.
	leafAtk := func(k int32) bgp.ASN { return asn(nl - 1 - 997*k) }
	deployers := make([]bgp.ASN, 0, nl/2)
	for i := int32(0); i < nl; i += 2 {
		deployers = append(deployers, asn(i))
	}
	legs := 0
	for k, ann := range anns[:8] {
		ann := Announcement{Origin: ann.Origin, Prepend: 4}
		atks := []Attacker{
			{AS: leafAtk(int32(k)), ViolateValleyFree: k%2 == 1},
			{AS: leafAtk(int32(k) + 8), Kind: AttackOriginHijack + AttackKind(k%2)},
		}
		for _, atk := range atks {
			label := fmt.Sprintf("V=%v M=%v kind %v violate=%v", ann.Origin, atk.AS, atk.Kind, atk.ViolateValleyFree)
			res, err := PropagateAttackScratch(g, ann, atk, nil, s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkRows(label, false)
			checkStable(t, g, res, ann, &atk, nil)
			if t.Failed() {
				t.Fatalf("%s: not a stable state", label)
			}
			legs++
		}
		if k%2 == 0 {
			// A cautious leg: every other leaf deploys, against a violating
			// leaf attacker.
			atk := Attacker{AS: leafAtk(int32(k) + 16), ViolateValleyFree: true}
			label := fmt.Sprintf("cautious V=%v M=%v", ann.Origin, atk.AS)
			base, err := Propagate(g, ann)
			if err != nil {
				t.Fatal(err)
			}
			thr := cautiousThresholds(g, base, deployers)
			res, err := PropagateCautious(g, ann, atk, base, thr, s)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			checkRows(label, true)
			checkStable(t, g, res, ann, &atk, thr)
			if t.Failed() {
				t.Fatalf("%s: not a stable state", label)
			}
			legs++
		}
	}
	if legs < 16 {
		t.Fatalf("%d attack legs, want >= 16", legs)
	}
}
