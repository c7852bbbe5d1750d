package topology

import (
	"testing"

	"aspp/internal/bgp"
)

func genTestGraph(t *testing.T, n int, seed int64) *Graph {
	t.Helper()
	cfg := DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(n=%d seed=%d): %v", n, seed, err)
	}
	return g
}

func TestGenerateDeterministic(t *testing.T) {
	g1 := genTestGraph(t, 500, 7)
	g2 := genTestGraph(t, 500, 7)
	l1, l2 := g1.Links(), g2.Links()
	if len(l1) != len(l2) {
		t.Fatalf("link counts differ: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("link %d differs: %v vs %v", i, l1[i], l2[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	g1 := genTestGraph(t, 500, 1)
	g2 := genTestGraph(t, 500, 2)
	l1, l2 := g1.Links(), g2.Links()
	if len(l1) == len(l2) {
		same := true
		for i := range l1 {
			if l1[i] != l2[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds generated identical graphs")
		}
	}
}

func TestGenerateStructure(t *testing.T) {
	g := genTestGraph(t, 2000, 3)
	s := Stats(g)

	if s.ASes != 2000 {
		t.Errorf("ASes = %d, want 2000", s.ASes)
	}
	if s.Tier1 != 10 {
		t.Errorf("Tier1 = %d, want 10", s.Tier1)
	}
	// Tier-1s must form a full peer clique with no providers.
	t1 := g.Tier1s()
	for _, a := range t1 {
		if len(g.Providers(a)) != 0 {
			t.Errorf("tier-1 %v has providers", a)
		}
		for _, other := range t1 {
			if other != a && g.RelOf(a, other) != RelPeer {
				t.Errorf("tier-1s %v and %v are not peers", a, other)
			}
		}
	}
	// Every non-tier-1 AS must reach tier-1 through providers (connectivity
	// of the hierarchy); equivalently every AS has >= 1 provider.
	for i := int32(0); i < int32(g.NumASes()); i++ {
		if g.TierIdx(i) != 1 && len(g.ProvidersIdx(i)) == 0 {
			t.Errorf("AS %v (tier %d) has no providers", g.ASNAt(i), g.TierIdx(i))
		}
	}
	// A healthy Internet-like graph: most ASes are stubs, some multihoming,
	// a heavy-tailed degree distribution.
	if frac := float64(s.Stubs) / float64(s.ASes); frac < 0.5 {
		t.Errorf("stub fraction = %.2f, want >= 0.5", frac)
	}
	if s.MultiHomedFrac < 0.25 {
		t.Errorf("multihomed fraction = %.2f, want >= 0.25", s.MultiHomedFrac)
	}
	if s.MaxDegree < 20*s.DegreeP90 /* heavy tail */ && s.MaxDegree < 100 {
		t.Errorf("degree distribution looks flat: max=%d p90=%d", s.MaxDegree, s.DegreeP90)
	}
	if s.MaxTier < 3 || s.MaxTier > 8 {
		t.Errorf("MaxTier = %d, want a 3..8 level hierarchy", s.MaxTier)
	}
	if s.PeeredStubFrac <= 0 {
		t.Error("no stubs have peering; content-AS generation broken")
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	bad := []GenConfig{
		{N: 4, Tier1: 2, LargeTransitFrac: 0.1, SmallTransitFrac: 0.1, MeanProviders: 2},
		{N: 100, Tier1: 60, LargeTransitFrac: 0.1, SmallTransitFrac: 0.1, MeanProviders: 2},
		{N: 100, Tier1: 5, LargeTransitFrac: 0, SmallTransitFrac: 0.1, MeanProviders: 2},
		{N: 100, Tier1: 5, LargeTransitFrac: 0.5, SmallTransitFrac: 0.5, MeanProviders: 2},
		{N: 100, Tier1: 5, LargeTransitFrac: 0.1, SmallTransitFrac: 0.1, MeanProviders: 0.5},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestGenerateASNsUnique(t *testing.T) {
	g := genTestGraph(t, 1000, 9)
	seen := make(map[bgp.ASN]bool, g.NumASes())
	for _, a := range g.ASNs() {
		if seen[a] {
			t.Fatalf("duplicate ASN %v", a)
		}
		seen[a] = true
	}
}

func TestStatsOnSmallGraph(t *testing.T) {
	g := smallGraph(t)
	s := Stats(g)
	if s.ASes != 8 || s.Links != 9 {
		t.Errorf("Stats = %+v, want 8 ASes / 9 links", s)
	}
	if s.P2PLinks != 2 || s.P2CLinks != 7 {
		t.Errorf("link split = %d p2c / %d p2p, want 7/2", s.P2CLinks, s.P2PLinks)
	}
	if s.Tier1 != 2 || s.Stubs != 3 || s.Transit != 3 {
		t.Errorf("tier split = %d/%d/%d, want 2/3/3", s.Tier1, s.Transit, s.Stubs)
	}
	// 100 and 200 peer with each other; 300 is the one stub with only a provider.
	if s.Leaves != 1 || s.SingleHomedLeaves != 1 {
		t.Errorf("leaves = %d (%d single-homed), want 1 (1)", s.Leaves, s.SingleHomedLeaves)
	}
}
