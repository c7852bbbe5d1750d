package aspp

// Answers at the scale we run (ROADMAP 4b): the Fig. 11 sibling graph on
// internet80k, full kernel against the message-level reference engine.
// Gated behind ASPP_SCALE=1 like the other 80k tests (make scale-smoke).

import (
	"testing"

	"aspp/internal/experiment"
	"aspp/internal/routing"
)

// TestScale80kSiblingKernelMatchesReference builds asppbench's fig11
// scenario on the 80,000-AS graph (the third-ranked tier-1 as victim, its
// grafted sibling a customer of the content-stub attacker) and compares
// the kernel with PropagateReference row for row, baseline and attack, at
// λ = 1 and λ = 5.
func TestScale80kSiblingKernelMatchesReference(t *testing.T) {
	scaleGate(t)
	g := internet80k(t)
	attacker, err := experiment.PickContentStub(g)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := experiment.PickTier1ByDegree(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := experiment.BuildSiblingScenario(g, victim, attacker, 65530)
	if err != nil {
		t.Fatal(err)
	}
	s := routing.NewScratch()
	atk := routing.Attacker{AS: attacker}
	for _, lambda := range []int{1, 5} {
		ann := routing.Announcement{Origin: victim, Prepend: lambda}
		base, err := routing.PropagateScratch(sib.Graph, ann, s)
		if err != nil {
			t.Fatalf("λ=%d: PropagateScratch: %v", lambda, err)
		}
		got, err := routing.PropagateAttackScratch(sib.Graph, ann, atk, base, s)
		if err != nil {
			t.Fatalf("λ=%d: PropagateAttackScratch: %v", lambda, err)
		}
		for leg, kernel := range map[string]*routing.Result{"baseline": base, "attack": got} {
			var refAtk *routing.Attacker
			if leg == "attack" {
				refAtk = &atk
			}
			want, err := routing.PropagateReference(sib.Graph, ann, refAtk)
			if err != nil {
				t.Fatalf("λ=%d %s: PropagateReference: %v", lambda, leg, err)
			}
			bad := 0
			for i := range want.Class {
				if kernel.Class[i] != want.Class[i] || kernel.Len[i] != want.Len[i] || kernel.Prep[i] != want.Prep[i] ||
					kernel.Parent[i] != want.Parent[i] || (want.Via != nil && kernel.Via[i] != want.Via[i]) {
					if bad++; bad <= 5 {
						t.Errorf("λ=%d %s: AS %v: kernel (%v len %d prep %d parent %d), reference (%v len %d prep %d parent %d)",
							lambda, leg, sib.Graph.ASNAt(int32(i)),
							kernel.Class[i], kernel.Len[i], kernel.Prep[i], kernel.Parent[i],
							want.Class[i], want.Len[i], want.Prep[i], want.Parent[i])
					}
				}
			}
			if bad > 0 {
				t.Errorf("λ=%d %s: %d of %d rows differ", lambda, leg, bad, len(want.Class))
			}
		}
	}
}
