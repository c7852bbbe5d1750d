package defense

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/obs"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

// CautiousOutcome is one deployment level of the PGBGP-style mitigation
// (the paper's §VII citation [29], "Pretty Good BGP: cautiously adopting
// routes"): deploying ASes remember how many origin prepends a prefix's
// routes historically carried, and quarantine any route carrying fewer —
// using it only when no normal route remains.
type CautiousOutcome struct {
	// DeployFrac is the fraction of ASes running cautious adoption.
	DeployFrac float64
	// Deployers is the realized deployer count.
	Deployers int
	// Pollution is the attacked polluted fraction under this deployment.
	Pollution float64
}

// DeployPolicy selects which ASes deploy the mitigation.
type DeployPolicy uint8

const (
	// DeployRandom samples deployers uniformly.
	DeployRandom DeployPolicy = iota + 1
	// DeployTopDegree deploys at the best-connected ASes first — the
	// realistic rollout (large ISPs adopt security mechanisms first) and
	// the more effective one, since core ASes transit most routes.
	DeployTopDegree
)

// String names the policy.
func (p DeployPolicy) String() string {
	switch p {
	case DeployRandom:
		return "random"
	case DeployTopDegree:
		return "top-degree"
	default:
		return fmt.Sprintf("DeployPolicy(%d)", uint8(p))
	}
}

// CautiousAdoptionSweep measures the attack's pollution as cautious
// adoption spreads across the Internet, for deployment fractions fracs.
// Deployers' historical prepend counts come from the honest baseline.
// Returns core.ErrAttackerSeesNoRoute when the attacker never hears the
// victim's route. Every fraction runs on the full kernel
// (routing.PropagateCautious), on one Scratch. A non-nil counters[0]
// receives the sweep's propagations: the baseline, then one full-kernel
// attack per fraction. It is optional so that callers keeping no counters
// call the sweep as before.
func CautiousAdoptionSweep(g *topology.Graph, sc core.Scenario, fracs []float64, policy DeployPolicy, seed int64, counters ...*obs.Counters) ([]CautiousOutcome, error) {
	if len(fracs) == 0 {
		return nil, errors.New("defense: no deployment fractions")
	}
	ann, atk := sc.Announcement(), sc.AttackerConfig()
	var c *obs.Counters
	if len(counters) > 0 {
		c = counters[0]
	}
	baseline, err := routing.Propagate(g, ann)
	if err != nil {
		return nil, fmt.Errorf("defense: baseline: %w", err)
	}
	c.Add(obs.BasePropagations, 1)
	if err := atk.Validate(g, ann); err != nil {
		return nil, fmt.Errorf("defense: %w", err)
	}
	if !baseline.Reachable(sc.Attacker) {
		return nil, core.ErrAttackerSeesNoRoute
	}

	// Deployment order: fixed once, then prefixes of it per fraction, so
	// the sweep is monotone in deployment by construction.
	order := deploymentOrder(g, policy, seed)

	vIdx, _ := g.Index(sc.Victim)
	aIdx, _ := g.Index(sc.Attacker)
	eligible := 0
	for i := int32(0); i < int32(g.NumASes()); i++ {
		if i != vIdx && i != aIdx && baseline.ReachableIdx(i) {
			eligible++
		}
	}
	if eligible == 0 {
		return nil, errors.New("defense: nobody reaches the victim")
	}

	sorted := append([]float64(nil), fracs...)
	sort.Float64s(sorted)
	out := make([]CautiousOutcome, 0, len(sorted))
	// Each fraction deploys a prefix of order, so the thresholds grow in
	// place: a deployer's is the origin-prepend count of its honest route.
	quar := make([]int16, g.NumASes())
	s := routing.NewScratch()
	deployed, deployers := 0, 0
	for _, f := range sorted {
		if f < 0 || f > 1 {
			return nil, fmt.Errorf("defense: deployment fraction %v out of range", f)
		}
		for n := int(f * float64(len(order))); deployed < n; deployed++ {
			idx, _ := g.Index(order[deployed])
			if baseline.ReachableIdx(idx) && idx != baseline.OriginIdx() {
				quar[idx] = baseline.Prep[idx]
				deployers++
			}
		}
		res, err := routing.PropagateCautious(g, ann, atk, baseline, quar, s)
		if err != nil {
			return nil, fmt.Errorf("defense: deployment %.2f: %w", f, err)
		}
		c.Add(obs.FullPropagations, 1)
		c.Max(obs.ScratchBytes, s.MemoryBytes())
		polluted := 0
		for i := int32(0); i < int32(g.NumASes()); i++ {
			if i == vIdx || i == aIdx || !baseline.ReachableIdx(i) {
				continue
			}
			if res.Via != nil && res.Via[i] {
				polluted++
			}
		}
		out = append(out, CautiousOutcome{
			DeployFrac: f,
			Deployers:  deployers,
			Pollution:  float64(polluted) / float64(eligible),
		})
	}
	return out, nil
}

func deploymentOrder(g *topology.Graph, policy DeployPolicy, seed int64) []bgp.ASN {
	switch policy {
	case DeployTopDegree:
		return g.TopByDegree(g.NumASes())
	default:
		asns := g.ASNs()
		rng := rand.New(rand.NewSource(stats.DeriveSeed(seed, "defense.deploy.random")))
		rng.Shuffle(len(asns), func(i, j int) { asns[i], asns[j] = asns[j], asns[i] })
		return asns
	}
}
