package topology

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"aspp/internal/bgp"
)

// GenConfig parameterizes the synthetic Internet generator. The defaults
// (see DefaultGenConfig) produce a hierarchy with the structural properties
// the paper's experiments depend on: a small, fully-meshed tier-1 core, a
// transit middle with preferential-attachment multihoming, a thick edge of
// stub ASes, and a minority of richly-peered content/CDN-like edge ASes.
type GenConfig struct {
	// N is the total number of ASes (minimum 16).
	N int
	// Tier1 is the size of the provider-free core clique.
	Tier1 int
	// LargeTransitFrac is the fraction of ASes acting as tier-2 transit.
	LargeTransitFrac float64
	// SmallTransitFrac is the fraction acting as regional (tier-3) transit.
	SmallTransitFrac float64
	// ContentFrac is the fraction of stub ASes that are content/CDN-like:
	// they acquire many peering links at the edge (the paper's Fig. 11
	// "well-connected enterprise ISP" scenario depends on these).
	ContentFrac float64
	// MeanProviders controls multihoming degree for non-core ASes.
	MeanProviders float64
	// PeerDegreeT2 is the mean number of peers for a tier-2 AS.
	PeerDegreeT2 float64
	// PeerDegreeT3 is the mean number of peers for a tier-3 AS.
	PeerDegreeT3 float64
	// PeerDegreeContent is the mean number of peers for a content AS.
	PeerDegreeContent float64
	// Seed drives all randomness; equal configs generate equal graphs.
	Seed int64
	// ASNSpace is the size of the ASN pool numbers are drawn from
	// (ASNs are uniform in [1, ASNSpace]). Zero means the legacy 16-bit
	// public range (64495), which caps usable N — rejection sampling
	// needs headroom, so Validate requires ASNSpace >= 2*N. Internet-scale
	// configs (see InternetGenConfig) widen this into the 32-bit range.
	ASNSpace int
}

// DefaultGenConfig returns a calibrated configuration for n ASes.
func DefaultGenConfig(n int) GenConfig {
	return GenConfig{
		N:                 n,
		Tier1:             10,
		LargeTransitFrac:  0.06,
		SmallTransitFrac:  0.16,
		ContentFrac:       0.04,
		MeanProviders:     1.9,
		PeerDegreeT2:      7,
		PeerDegreeT3:      2.5,
		PeerDegreeContent: 12,
		Seed:              1,
	}
}

// legacyASNSpace is the ASN pool used when ASNSpace is zero: the 16-bit
// public range. Every pre-existing seeded graph (goldens, fixtures) was
// drawn from it, so the zero value must keep meaning exactly this.
const legacyASNSpace = 64495

// asnSpace resolves the effective ASN pool size.
func (c GenConfig) asnSpace() int {
	if c.ASNSpace == 0 {
		return legacyASNSpace
	}
	return c.ASNSpace
}

// InternetGenConfig returns an Internet-scale configuration for n ASes,
// calibrated so that at n≈80k the structural stats land near the CAIDA
// AS-relationship snapshots the paper's scenario assumes: a ~16-member
// provider-free core, ~15% of ASes providing transit, ~85% stubs, mean
// degree ≈ 7-8 (≈3.7 links per AS — CAIDA serial-2 snapshots at 60-80k
// ASes carry ≈2.5-4 links/AS), multihoming mean ≈ 2.2 providers, and a
// heavy-tailed degree distribution from preferential attachment (max
// degree in the hundreds against a single-digit median). Distinct from
// DefaultGenConfig,
// which keeps Tier1=10 and denser transit regardless of n — fine at
// n=4000, structurally wrong at 80k. ASNs draw from a 400k pool
// (32-bit range), since 80k ASes cannot fit the legacy 16-bit pool.
// TestInternetGenConfigStats pins the calibration bounds;
// TestInternet80kDigest pins exact reproducibility at the canonical
// n=80000, Seed=1.
func InternetGenConfig(n int) GenConfig {
	return GenConfig{
		N:                 n,
		Tier1:             16,
		LargeTransitFrac:  0.035,
		SmallTransitFrac:  0.115,
		ContentFrac:       0.06,
		MeanProviders:     2.2,
		PeerDegreeT2:      30,
		PeerDegreeT3:      5,
		PeerDegreeContent: 25,
		Seed:              1,
		ASNSpace:          400000,
	}
}

// Internet80kASes is the canonical Internet-scale size: the ~80k-AS graph
// the paper's full-Internet sweeps target (ROADMAP items 1, 4 and 8).
const Internet80kASes = 80000

// Validate checks the configuration for consistency.
func (c GenConfig) Validate() error {
	if c.N < 16 {
		return fmt.Errorf("topology: N=%d too small (min 16)", c.N)
	}
	if space := c.asnSpace(); space < 2*c.N {
		return fmt.Errorf("topology: ASNSpace=%d too small for N=%d (need >= 2N for rejection-sampling headroom)", space, c.N)
	}
	if c.Tier1 < 2 || c.Tier1 >= c.N/2 {
		return fmt.Errorf("topology: Tier1=%d out of range", c.Tier1)
	}
	if c.LargeTransitFrac <= 0 || c.SmallTransitFrac <= 0 ||
		c.LargeTransitFrac+c.SmallTransitFrac > 0.8 {
		return errors.New("topology: transit fractions out of range")
	}
	if c.MeanProviders < 1 {
		return errors.New("topology: MeanProviders must be >= 1")
	}
	return nil
}

// Generate builds a random AS topology from cfg. The result is guaranteed
// to be connected through the provider hierarchy (every AS has a provider
// path to the tier-1 clique) and free of provider cycles.
func Generate(cfg GenConfig) (*Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Assign distinct, realistic-looking ASNs drawn uniformly from the
	// configured pool (legacy 16-bit range unless ASNSpace widens it).
	space := cfg.asnSpace()
	asns := make([]bgp.ASN, cfg.N)
	used := make(map[bgp.ASN]struct{}, cfg.N)
	for i := range asns {
		for {
			a := bgp.ASN(1 + rng.Intn(space))
			if _, dup := used[a]; !dup {
				used[a] = struct{}{}
				asns[i] = a
				break
			}
		}
	}

	nT1 := cfg.Tier1
	nT2 := int(float64(cfg.N) * cfg.LargeTransitFrac)
	nT3 := int(float64(cfg.N) * cfg.SmallTransitFrac)
	if nT1+nT2+nT3 >= cfg.N {
		return nil, errors.New("topology: transit tiers exhaust AS budget")
	}
	t1 := asns[:nT1]
	t2 := asns[nT1 : nT1+nT2]
	t3 := asns[nT1+nT2 : nT1+nT2+nT3]
	stubs := asns[nT1+nT2+nT3:]

	b := NewBuilder()
	for _, a := range asns {
		if err := b.AddAS(a); err != nil {
			return nil, err
		}
	}

	// Tier-1 clique: full peer mesh.
	for i := 0; i < len(t1); i++ {
		for j := i + 1; j < len(t1); j++ {
			if err := b.AddP2P(t1[i], t1[j]); err != nil {
				return nil, err
			}
		}
	}

	// Preferential attachment via a "ball bag" per pool: every pool
	// member starts with one ball and gains one per customer it wins, so
	// a uniform draw from the bag is weighted by customer count + 1.
	// Excluded hits (self, duplicates) are re-drawn, with a bounded
	// number of retries before falling back to a linear scan.
	type ballBag struct {
		balls []bgp.ASN
	}
	newBag := func(pool []bgp.ASN) *ballBag {
		b := &ballBag{balls: make([]bgp.ASN, len(pool), len(pool)*3)}
		copy(b.balls, pool)
		return b
	}
	custCount := make(map[bgp.ASN]int, cfg.N)
	pick := func(bag *ballBag, exclude map[bgp.ASN]bool) (bgp.ASN, bool) {
		if len(bag.balls) == 0 {
			return 0, false
		}
		for try := 0; try < 24; try++ {
			a := bag.balls[rng.Intn(len(bag.balls))]
			if !exclude[a] {
				return a, true
			}
		}
		// Dense exclusion (tiny pools): fall back to an exact scan.
		total := 0
		for _, a := range bag.balls {
			if !exclude[a] {
				total++
			}
		}
		if total == 0 {
			return 0, false
		}
		r := rng.Intn(total)
		for _, a := range bag.balls {
			if exclude[a] {
				continue
			}
			if r == 0 {
				return a, true
			}
			r--
		}
		return 0, false
	}

	// numProviders draws 1 + Geometric-ish count with the configured mean.
	numProviders := func() int {
		n := 1
		p := 1 - 1/cfg.MeanProviders // probability of another provider
		for n < 5 && rng.Float64() < p {
			n++
		}
		return n
	}

	attach := func(child bgp.ASN, bag *ballBag) error {
		excl := map[bgp.ASN]bool{child: true}
		for k := numProviders(); k > 0; k-- {
			p, ok := pick(bag, excl)
			if !ok {
				break
			}
			if err := b.AddP2C(p, child); err != nil {
				return err
			}
			custCount[p]++
			bag.balls = append(bag.balls, p)
			excl[p] = true
		}
		return nil
	}

	// Tier-2 homes under tier-1.
	t1Bag := newBag(t1)
	for _, a := range t2 {
		if err := attach(a, t1Bag); err != nil {
			return nil, err
		}
	}
	// Tier-3 homes under tier-2 (occasionally directly under tier-1).
	t2Bag := newBag(t2)
	for _, a := range t3 {
		bag := t2Bag
		if rng.Float64() < 0.08 {
			bag = t1Bag
		}
		if err := attach(a, bag); err != nil {
			return nil, err
		}
	}
	// Stubs home under tier-2/tier-3 transit.
	transit := make([]bgp.ASN, 0, len(t2)+len(t3))
	transit = append(transit, t2...)
	transit = append(transit, t3...)
	transitBag := newBag(transit)
	// Carry tier-3 attachment weights into the combined transit bag.
	for _, a := range transit {
		for k := 0; k < custCount[a]; k++ {
			transitBag.balls = append(transitBag.balls, a)
		}
	}
	for _, a := range stubs {
		if err := attach(a, transitBag); err != nil {
			return nil, err
		}
	}

	// Peering: helper adds ~mean peers per AS from pool.
	addPeers := func(members, pool []bgp.ASN, mean float64) error {
		if mean <= 0 || len(pool) < 2 {
			return nil
		}
		for _, a := range members {
			// Each AS initiates Poisson-ish mean/2 sessions (the peer also
			// initiates, so expected degree ≈ mean).
			k := 0
			for rng.Float64() < (mean/2)/(mean/2+1) && k < int(mean*2)+1 {
				k++
			}
			for ; k > 0; k-- {
				p := pool[rng.Intn(len(pool))]
				if p == a || b.HasLink(a, p) {
					continue
				}
				if err := b.AddP2P(a, p); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := addPeers(t2, t2, cfg.PeerDegreeT2); err != nil {
		return nil, err
	}
	if err := addPeers(t3, t3, cfg.PeerDegreeT3); err != nil {
		return nil, err
	}

	// Content-heavy edge ASes: stubs that peer widely with transit and
	// with each other (CDN-at-IXP pattern).
	nContent := int(float64(len(stubs)) * cfg.ContentFrac / (1 - cfg.LargeTransitFrac - cfg.SmallTransitFrac))
	if nContent > len(stubs) {
		nContent = len(stubs)
	}
	content := stubs[:nContent]
	peerPool := make([]bgp.ASN, 0, len(t2)+len(t3)+len(content))
	peerPool = append(peerPool, t2...)
	peerPool = append(peerPool, t3...)
	peerPool = append(peerPool, content...)
	if err := addPeers(content, peerPool, cfg.PeerDegreeContent); err != nil {
		return nil, err
	}

	return b.Build()
}

// GenStats summarizes structural properties of a graph, used by tests and
// the aspptopo tool to sanity-check generated Internets.
type GenStats struct {
	ASes, Links           int
	P2CLinks, P2PLinks    int
	Tier1, Transit, Stubs int
	MaxTier               int
	MeanDegree            float64
	MaxDegree             int
	MeanProvidersPerNonT1 float64
	MultiHomedFrac        float64
	DegreeP90, DegreeP99  int
	PeeredStubFrac        float64
	// Leaves have providers and no other link (Graph.NumLeaves); the
	// single-homed ones have exactly one provider.
	Leaves, SingleHomedLeaves int
}

// Stats computes GenStats for g.
func Stats(g *Graph) GenStats {
	var s GenStats
	s.ASes = g.NumASes()
	degs := make([]int, 0, s.ASes)
	provSum, nonT1, multi, peeredStubs, stubs := 0, 0, 0, 0, 0
	for i := int32(0); i < int32(s.ASes); i++ {
		asn := g.ASNAt(i)
		d := g.Degree(asn)
		degs = append(degs, d)
		s.MeanDegree += float64(d)
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		t := g.TierIdx(i)
		if t > s.MaxTier {
			s.MaxTier = t
		}
		switch {
		case t == 1:
			s.Tier1++
		case len(g.CustomersIdx(i)) > 0:
			s.Transit++
		default:
			s.Stubs++
		}
		if t != 1 {
			nonT1++
			np := len(g.ProvidersIdx(i))
			provSum += np
			if np > 1 {
				multi++
			}
		}
		if len(g.CustomersIdx(i)) == 0 && t != 1 {
			stubs++
			if len(g.PeersIdx(i)) > 0 {
				peeredStubs++
			}
		}
		if i < g.NumLeaves() {
			s.Leaves++
			if len(g.ProvidersIdx(i)) == 1 {
				s.SingleHomedLeaves++
			}
		}
		s.P2CLinks += len(g.CustomersIdx(i))
		s.P2PLinks += len(g.PeersIdx(i))
	}
	s.P2PLinks /= 2
	s.Links = s.P2CLinks + s.P2PLinks
	s.MeanDegree /= float64(s.ASes)
	if nonT1 > 0 {
		s.MeanProvidersPerNonT1 = float64(provSum) / float64(nonT1)
		s.MultiHomedFrac = float64(multi) / float64(nonT1)
	}
	if stubs > 0 {
		s.PeeredStubFrac = float64(peeredStubs) / float64(stubs)
	}
	sort.Ints(degs)
	s.DegreeP90 = degs[len(degs)*90/100]
	s.DegreeP99 = degs[len(degs)*99/100]
	return s
}
