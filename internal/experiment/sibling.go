package experiment

import (
	"context"
	"fmt"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// SiblingScenario reproduces the surprise in the paper's Fig. 11: a small
// attacker intercepting a tier-1 victim *without* violating valley-free
// export rules, because the victim has a sibling AS (the paper's
// NTT–Limelight pair) that is a customer of the attacker. The sibling
// re-exports the victim's prefix as an organizational ("customer-class")
// route; the attacker therefore learns the victim's route from a customer
// and may legally announce the stripped version to its own providers,
// whose peers spread it across the Internet — "the entire process obeys
// the valley-free routing policy".
type SiblingScenario struct {
	// Graph is the input topology extended with the sibling AS.
	Graph *topology.Graph
	// Victim is the tier-1 target; Sibling its same-organization AS;
	// Attacker the small AS the sibling buys transit from.
	Victim, Sibling, Attacker bgp.ASN
}

// BuildSiblingScenario grafts a sibling of victim onto g as a customer of
// attacker. siblingASN must be unused in g.
func BuildSiblingScenario(g *topology.Graph, victim, attacker, siblingASN bgp.ASN) (*SiblingScenario, error) {
	if !g.Has(victim) || !g.Has(attacker) {
		return nil, fmt.Errorf("experiment: victim %v or attacker %v not in topology", victim, attacker)
	}
	if g.Has(siblingASN) {
		return nil, fmt.Errorf("experiment: sibling ASN %v already in use", siblingASN)
	}
	b := topology.Rebuild(g)
	if err := b.AddS2S(victim, siblingASN); err != nil {
		return nil, err
	}
	if err := b.AddP2C(attacker, siblingASN); err != nil {
		return nil, err
	}
	extended, err := b.Build()
	if err != nil {
		return nil, err
	}
	return &SiblingScenario{
		Graph:    extended,
		Victim:   victim,
		Sibling:  siblingASN,
		Attacker: attacker,
	}, nil
}

// Sweep runs the λ sweep with the valley-free-*following* attacker over
// the sibling-extended topology (the paper's Fig. 11 "follow valley-free
// rule" curve). It is SweepPrependCfgCtx on s.Graph with default options;
// call that directly for cancellation, counters or the sweep-runner knobs.
func (s *SiblingScenario) Sweep(maxLambda int) ([]SweepPoint, error) {
	return SweepPrependCfgCtx(context.Background(), s.Graph, SweepConfig{
		Victim: s.Victim, Attacker: s.Attacker, MaxLambda: maxLambda,
	})
}
