// Package collector models the measurement side of the paper: origin ASes
// announcing prefixes under realistic AS-path-prepending policies, vantage
// points collecting routing tables, and churn events producing update
// streams — the synthetic stand-in for the RouteViews/RIPE data the paper
// post-processes (see DESIGN.md's substitution table).
//
// The prepending policies encode *why* operators prepend: backup-route
// provisioning pads backup upstreams heavily so they attract traffic only
// during failures, and inbound load balancing pads some upstreams a little.
// From these causes the paper's measured effects re-emerge: steady-state
// tables show prepending on a modest fraction of best routes, while update
// streams — dominated by failover transitions — show more and heavier
// prepending.
package collector

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net/netip"

	"aspp/internal/bgp"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// PolicyStyle classifies an origin's prepending policy.
type PolicyStyle uint8

const (
	// StyleNone: the origin never prepends (λ=1 everywhere).
	StyleNone PolicyStyle = iota + 1
	// StyleUniform: the origin prepends the same λ>1 to every neighbor
	// (inbound traffic discouragement, e.g. during maintenance).
	StyleUniform
	// StyleBackup: λ=1 toward a primary upstream, heavy padding toward
	// the backups — the classic backup-provisioning use of ASPP.
	StyleBackup
	// StyleLoadBalance: small per-neighbor λ values spreading inbound
	// traffic across upstreams.
	StyleLoadBalance
)

// String names the style.
func (s PolicyStyle) String() string {
	switch s {
	case StyleNone:
		return "none"
	case StyleUniform:
		return "uniform"
	case StyleBackup:
		return "backup"
	case StyleLoadBalance:
		return "loadbalance"
	default:
		return fmt.Sprintf("PolicyStyle(%d)", uint8(s))
	}
}

// OriginConfig is one origin AS with its prefixes and announcement policy.
type OriginConfig struct {
	AS       bgp.ASN
	Style    PolicyStyle
	Prefixes []netip.Prefix
	// Announcement carries the per-neighbor prepend map implementing the
	// style. Announcement.Origin == AS.
	Announcement routing.Announcement
	// Primary is the unpadded upstream for StyleBackup (0 otherwise).
	Primary bgp.ASN
}

// PolicyConfig parameterizes AssignOrigins.
type PolicyConfig struct {
	// PrependFrac is the fraction of origins that use ASPP at all. The
	// paper measures ~30% of routes carrying prepending somewhere on the
	// Internet; around a third of multi-homed edge ASes prepending
	// reproduces that once propagation is accounted for.
	PrependFrac float64
	// Of the prepending origins, the relative weights of each style.
	BackupWeight, UniformWeight, LoadBalanceWeight float64
	// MeanPrefixes is the mean number of prefixes each origin announces
	// (geometric, minimum 1).
	MeanPrefixes float64
	// MaxLambda caps prepend counts (tail values up to ~30 occur in the
	// wild; Fig. 6's x-axis runs to 38).
	MaxLambda int
	// Seed drives all randomness.
	Seed int64
}

// DefaultPolicyConfig returns the calibrated survey configuration.
func DefaultPolicyConfig() PolicyConfig {
	return PolicyConfig{
		PrependFrac:       0.32,
		BackupWeight:      0.55,
		UniformWeight:     0.10,
		LoadBalanceWeight: 0.35,
		MeanPrefixes:      2.0,
		MaxLambda:         30,
		Seed:              1,
	}
}

// Validate checks the configuration.
func (c PolicyConfig) Validate() error {
	if c.PrependFrac < 0 || c.PrependFrac > 1 {
		return errors.New("collector: PrependFrac out of [0,1]")
	}
	if c.BackupWeight+c.UniformWeight+c.LoadBalanceWeight <= 0 {
		return errors.New("collector: style weights sum to zero")
	}
	if c.MeanPrefixes < 1 {
		return errors.New("collector: MeanPrefixes must be >= 1")
	}
	if c.MaxLambda < 2 {
		return errors.New("collector: MaxLambda must be >= 2")
	}
	return nil
}

// sampleLambda draws a prepend count matching the empirically observed
// distribution: mode at 2 (~34% of prepended routes), then 3 (~22%), with
// a geometric tail out to MaxLambda (~1% above 10).
func sampleLambda(rng *rand.Rand, maxLambda int) int {
	r := rng.Float64()
	switch {
	case r < 0.40:
		return 2
	case r < 0.66:
		return 3
	case r < 0.80:
		return 4
	case r < 0.88:
		return 5
	}
	// Geometric tail starting at 6.
	l := 6
	for rng.Float64() < 0.72 && l < maxLambda {
		l++
	}
	return l
}

// AssignOrigins chooses prepending policies and prefixes for every stub
// and small transit AS in the graph (the prefix-originating edge of the
// Internet), deterministically from cfg.Seed.
func AssignOrigins(g *topology.Graph, cfg PolicyConfig) ([]OriginConfig, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var origins []OriginConfig
	prefixIdx := 0
	wSum := cfg.BackupWeight + cfg.UniformWeight + cfg.LoadBalanceWeight

	asns := g.ASNs() // index order: deterministic
	for _, asn := range asns {
		// Only edge networks originate prefixes in this model: stubs and
		// bottom-tier transit.
		if !g.IsStub(asn) && g.Tier(asn) < 3 {
			continue
		}
		oc := OriginConfig{
			AS:    asn,
			Style: StyleNone,
			Announcement: routing.Announcement{
				Origin:  asn,
				Prepend: 1,
			},
		}
		providers := g.Providers(asn)
		// Single-homed networks gain little from ASPP (there is only one
		// way in); they prepend far less often, and then only uniformly.
		prependProb := cfg.PrependFrac
		if len(providers) < 2 {
			prependProb *= 0.3
		}
		if rng.Float64() < prependProb && len(providers) >= 1 {
			oc.Style = pickStyle(rng, cfg, wSum, len(providers))
			applyStyle(&oc, providers, rng, cfg)
		}
		nPfx := 1
		for rng.Float64() < 1-1/cfg.MeanPrefixes && nPfx < 8 {
			nPfx++
		}
		for j := 0; j < nPfx; j++ {
			oc.Prefixes = append(oc.Prefixes, nthPrefix(prefixIdx))
			prefixIdx++
		}
		origins = append(origins, oc)
	}
	if len(origins) == 0 {
		return nil, errors.New("collector: graph has no edge ASes to originate prefixes")
	}
	return origins, nil
}

func pickStyle(rng *rand.Rand, cfg PolicyConfig, wSum float64, nProviders int) PolicyStyle {
	if nProviders < 2 {
		// Single-homed origins can only pad uniformly.
		return StyleUniform
	}
	r := rng.Float64() * wSum
	switch {
	case r < cfg.BackupWeight:
		return StyleBackup
	case r < cfg.BackupWeight+cfg.UniformWeight:
		return StyleUniform
	default:
		return StyleLoadBalance
	}
}

func applyStyle(oc *OriginConfig, providers []bgp.ASN, rng *rand.Rand, cfg PolicyConfig) {
	switch oc.Style {
	case StyleUniform:
		oc.Announcement.Prepend = sampleLambda(rng, cfg.MaxLambda)
	case StyleBackup:
		oc.Primary = providers[rng.Intn(len(providers))]
		// Backups are padded heavily so they never win while the primary
		// is up.
		pad := 2 + sampleLambda(rng, cfg.MaxLambda)
		if pad > cfg.MaxLambda {
			pad = cfg.MaxLambda
		}
		oc.Announcement.Prepend = pad
		oc.Announcement.PerNeighbor = map[bgp.ASN]int{oc.Primary: 1}
	case StyleLoadBalance:
		oc.Announcement.PerNeighbor = make(map[bgp.ASN]int, len(providers))
		for _, p := range providers {
			oc.Announcement.PerNeighbor[p] = 1 + rng.Intn(3)
		}
		oc.Announcement.Prepend = 1
	}
}

// nthPrefix maps a dense index to a synthetic, globally unique /24.
func nthPrefix(i int) netip.Prefix {
	v := uint32(0x01000000) + uint32(i)*256 // 1.0.0.0 upward, one /24 each
	addr := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), 0})
	return netip.PrefixFrom(addr, 24)
}

// ChurnEvent is one failure/restore cycle of a backup-provisioned origin's
// primary upstream link: the origin withdraws its announcement toward the
// primary, the Internet fails over to the padded backups, then the link
// restores.
type ChurnEvent struct {
	Origin  bgp.ASN
	Primary bgp.ASN
}

// Failover is ann, the origin's steady announcement, with the primary
// session failed: λ 0 toward Primary. ann's table is not modified.
func (ev ChurnEvent) Failover(ann routing.Announcement) routing.Announcement {
	pn := make(map[bgp.ASN]int, len(ann.PerNeighbor)+1)
	maps.Copy(pn, ann.PerNeighbor)
	pn[ev.Primary] = 0
	ann.PerNeighbor = pn
	return ann
}

// PlanChurn samples n failure events over the origins that have a primary
// (StyleBackup). Sampling is with replacement: a flaky link fails often.
func PlanChurn(origins []OriginConfig, n int, seed int64) []ChurnEvent {
	var backup []OriginConfig
	for _, oc := range origins {
		if oc.Style == StyleBackup && oc.Primary != 0 {
			backup = append(backup, oc)
		}
	}
	if len(backup) == 0 || n <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	events := make([]ChurnEvent, n)
	for i := range events {
		oc := backup[rng.Intn(len(backup))]
		events[i] = ChurnEvent{Origin: oc.AS, Primary: oc.Primary}
	}
	return events
}
