package experiment

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"

	"aspp/internal/bgp"
	"aspp/internal/core"
	"aspp/internal/topology"
	"aspp/internal/trace"
)

// The real-world actors of the paper's Section III anomaly, by their
// actual AS numbers.
const (
	ASFacebook     bgp.ASN = 32934
	ASLevel3       bgp.ASN = 3356
	ASATT          bgp.ASN = 7018
	ASNTT          bgp.ASN = 2914
	ASChinaTelecom bgp.ASN = 4134
	ASKoreanISP    bgp.ASN = 9318
	ASSprint       bgp.ASN = 1239
	ASCogent       bgp.ASN = 174
	ASVerizon      bgp.ASN = 701
	ASATTRegional  bgp.ASN = 7132 // the traceroute's access network
)

// CaseStudy reproduces the Facebook routing anomaly of March 22, 2011:
// Facebook announces 69.171.224.0/20 with five copies of AS32934; the
// Korean ISP AS9318 re-advertises it with only three, and the shorter
// route through China Telecom is adopted by AT&T, NTT and most of the
// Internet (paper Fig. 1 and Table I).
type CaseStudy struct {
	Graph  *topology.Graph
	Impact *core.Impact
	// Regions places the named ASes for the traceroute simulation.
	Regions trace.RegionMap
}

// FacebookCaseStudy builds the Fig. 1 topology embedded in a generated
// backdrop of about backdropN additional ASes, and simulates the anomaly.
func FacebookCaseStudy(backdropN int, seed int64) (*CaseStudy, error) {
	if backdropN < 0 {
		backdropN = 0
	}
	b := topology.NewBuilder()

	// Tier-1 clique.
	tier1 := []bgp.ASN{ASATT, ASNTT, ASLevel3, ASChinaTelecom, ASSprint, ASCogent, ASVerizon}
	for i := 0; i < len(tier1); i++ {
		for j := i + 1; j < len(tier1); j++ {
			if err := b.AddP2P(tier1[i], tier1[j]); err != nil {
				return nil, err
			}
		}
	}
	// The Korean ISP buys transit from China Telecom; Facebook is a
	// customer of Level3 (primary) and of the Korean ISP (the padded
	// backup that gets stripped).
	if err := b.AddP2C(ASChinaTelecom, ASKoreanISP); err != nil {
		return nil, err
	}
	if err := b.AddP2C(ASLevel3, ASFacebook); err != nil {
		return nil, err
	}
	if err := b.AddP2C(ASKoreanISP, ASFacebook); err != nil {
		return nil, err
	}
	// The probe's access network.
	if err := b.AddP2C(ASATT, ASATTRegional); err != nil {
		return nil, err
	}

	// Backdrop: regional ISPs under the tier-1s and stubs under them, so
	// pollution fractions are measured over a realistic population.
	rng := rand.New(rand.NewSource(seed))
	named := map[bgp.ASN]bool{
		ASFacebook: true, ASLevel3: true, ASATT: true, ASNTT: true,
		ASChinaTelecom: true, ASKoreanISP: true, ASSprint: true,
		ASCogent: true, ASVerizon: true, ASATTRegional: true,
	}
	nextASN := bgp.ASN(20000)
	newASN := func() bgp.ASN {
		for named[nextASN] {
			nextASN++
		}
		a := nextASN
		nextASN++
		return a
	}
	nRegional := backdropN / 5
	if nRegional < 1 && backdropN > 0 {
		nRegional = 1
	}
	var regionals []bgp.ASN
	for i := 0; i < nRegional; i++ {
		r := newASN()
		regionals = append(regionals, r)
		for _, p := range pickDistinct(rng, tier1, 1+rng.Intn(2)) {
			if err := b.AddP2C(p, r); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < backdropN-nRegional && len(regionals) > 0; i++ {
		s := newASN()
		for _, p := range pickDistinct(rng, regionals, 1+rng.Intn(2)) {
			if err := b.AddP2C(p, s); err != nil {
				return nil, err
			}
		}
	}

	g, err := b.Build()
	if err != nil {
		return nil, err
	}

	// The attack: Facebook pads both upstreams with λ=5; AS9318 strips
	// down to three copies (the anomalous route carried exactly three).
	im, err := core.Simulate(g, core.Scenario{
		Victim:      ASFacebook,
		Attacker:    ASKoreanISP,
		Prepend:     5,
		KeepPrepend: 3,
	})
	if err != nil {
		return nil, fmt.Errorf("facebook case study: %w", err)
	}

	regions := trace.RandomRegions(g.ASNs(), seed)
	for asn, r := range map[bgp.ASN]trace.Region{
		ASATTRegional:  trace.RegionUSWest,
		ASATT:          trace.RegionUSWest,
		ASLevel3:       trace.RegionUSWest,
		ASSprint:       trace.RegionUSEast,
		ASCogent:       trace.RegionUSEast,
		ASVerizon:      trace.RegionUSEast,
		ASNTT:          trace.RegionUSWest,
		ASChinaTelecom: trace.RegionEastAsia,
		ASKoreanISP:    trace.RegionEastAsia,
		ASFacebook:     trace.RegionUSWest,
	} {
		regions[asn] = r
	}
	return &CaseStudy{Graph: g, Impact: im, Regions: regions}, nil
}

func pickDistinct(rng *rand.Rand, pool []bgp.ASN, n int) []bgp.ASN {
	if n > len(pool) {
		n = len(pool)
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]bgp.ASN, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// AnnouncementChain renders the Fig. 1 view: the per-AS best routes for
// Facebook's prefix before and after the anomaly at the named ASes.
func (cs *CaseStudy) AnnouncementChain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Prefix: 69.171.224.0/20 (origin %v, announced with 5 copies of 32934)\n", ASFacebook)
	fmt.Fprintf(&sb, "%-18s %-42s %s\n", "AS", "before (normal)", "after (AS9318 strips to 3)")
	names := []struct {
		asn  bgp.ASN
		name string
	}{
		{ASLevel3, "Level3 AS3356"},
		{ASKoreanISP, "SK/KT AS9318"},
		{ASChinaTelecom, "ChinaTel AS4134"},
		{ASATT, "AT&T AS7018"},
		{ASNTT, "NTT AS2914"},
		{ASATTRegional, "AT&T-reg AS7132"},
	}
	for _, n := range names {
		before, after := cs.Impact.PathsAt(n.asn)
		mark := " "
		if !before.Equal(after) {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%-18s %-42s %s %s\n", n.name, before.String(), after.String(), mark)
	}
	fmt.Fprintf(&sb, "polluted: %d of %d ASes (%.1f%%)\n",
		cs.Impact.PollutedAfter, cs.Impact.Eligible, 100*cs.Impact.After())
	return sb.String()
}

// Traceroutes returns Table I's view: simulated traceroutes from the AT&T
// customer to Facebook over the normal and the hijacked route.
func (cs *CaseStudy) Traceroutes(seed int64) (normal, hijacked []trace.Hop) {
	cfg := trace.Config{Source: ASATTRegional, Regions: cs.Regions, Seed: seed}
	before, after := cs.Impact.PathsAt(ASATTRegional)
	return trace.Run(before, cfg), trace.Run(after, cfg)
}

// PrefixOutcome is the per-prefix result of the anomaly: the paper
// observed that of Facebook's ten prefixes only the two front-end blocks
// (announced via the Korean backup as well as Level3) were affected.
type PrefixOutcome struct {
	Prefix netip.Prefix
	// ViaBackup: the prefix is announced toward AS9318 too (front-end
	// blocks); the rest go to Level3 only.
	ViaBackup bool
	// PollutedFrac is the fraction of ASes intercepted for this prefix.
	PollutedFrac float64
}

// facebookPrefixes are Facebook's announcements at the time; the first
// two are the affected front-end blocks of the paper's §III.
var facebookPrefixes = []struct {
	prefix    string
	viaBackup bool
}{
	{prefix: "69.171.224.0/20", viaBackup: true},
	{prefix: "69.171.255.0/24", viaBackup: true},
	{prefix: "66.220.144.0/20", viaBackup: false},
	{prefix: "66.220.152.0/21", viaBackup: false},
	{prefix: "69.63.176.0/20", viaBackup: false},
	{prefix: "69.63.184.0/21", viaBackup: false},
	{prefix: "69.171.239.0/24", viaBackup: false},
	{prefix: "74.119.76.0/22", viaBackup: false},
	{prefix: "204.15.20.0/22", viaBackup: false},
	{prefix: "173.252.64.0/18", viaBackup: false},
}

// PrefixStudy simulates the attack per prefix. Prefixes announced only to
// Level3 still reach AS9318 (as a provider-learned route via China
// Telecom), but stripping them gains the attacker nothing: a
// provider-learned route may only be exported downhill. Only the blocks
// announced to the Korean backup are interceptable — reproducing the
// paper's "only two prefixes are affected" observation from export rules
// alone.
func (cs *CaseStudy) PrefixStudy() ([]PrefixOutcome, error) {
	out := make([]PrefixOutcome, 0, len(facebookPrefixes))
	for _, fp := range facebookPrefixes {
		pfx, err := netip.ParsePrefix(fp.prefix)
		if err != nil {
			return nil, fmt.Errorf("facebook prefix %q: %w", fp.prefix, err)
		}
		sc := core.Scenario{
			Victim:      ASFacebook,
			Attacker:    ASKoreanISP,
			Prepend:     5,
			KeepPrepend: 3,
		}
		if !fp.viaBackup {
			sc.PerNeighborPrepend = map[bgp.ASN]int{ASKoreanISP: 0}
		}
		im, err := core.Simulate(cs.Graph, sc)
		if err != nil {
			return nil, fmt.Errorf("facebook prefix %v: %w", pfx, err)
		}
		out = append(out, PrefixOutcome{
			Prefix:       pfx,
			ViaBackup:    fp.viaBackup,
			PollutedFrac: im.After(),
		})
	}
	return out, nil
}

// RenderPrefixStudy formats the per-prefix outcomes.
func RenderPrefixStudy(outcomes []PrefixOutcome) string {
	var sb strings.Builder
	sb.WriteString("prefix               announced_to          intercepted\n")
	for _, o := range outcomes {
		to := "Level3 only"
		if o.ViaBackup {
			to = "Level3 + AS9318"
		}
		fmt.Fprintf(&sb, "%-20s %-21s %.1f%%\n", o.Prefix, to, 100*o.PollutedFrac)
	}
	return sb.String()
}
