package topology

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"aspp/internal/bgp"
)

// parentGenerate is the map-based generator Generate replaced, kept as the
// reference it must match draw for draw: ASNs in a map, ball bags of ASNs,
// map exclusion sets, links through the public Builder API and a pair map
// for "already linked?". It also returns how often pick drew from its
// exact scan, so a test can show that path ran.
func parentGenerate(cfg GenConfig) (*Graph, int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
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
		return nil, 0, errors.New("topology: transit tiers exhaust AS budget")
	}
	t1 := asns[:nT1]
	t2 := asns[nT1 : nT1+nT2]
	t3 := asns[nT1+nT2 : nT1+nT2+nT3]
	stubs := asns[nT1+nT2+nT3:]

	b := NewBuilder()
	for _, a := range asns {
		if err := b.AddAS(a); err != nil {
			return nil, 0, err
		}
	}
	type pair struct{ x, y bgp.ASN }
	linked := make(map[pair]bool)
	link := func(x, y bgp.ASN) { linked[pair{x, y}], linked[pair{y, x}] = true, true }

	for i := 0; i < len(t1); i++ {
		for j := i + 1; j < len(t1); j++ {
			if err := b.AddP2P(t1[i], t1[j]); err != nil {
				return nil, 0, err
			}
			link(t1[i], t1[j])
		}
	}

	type ballBag struct{ balls []bgp.ASN }
	newBag := func(pool []bgp.ASN) *ballBag {
		return &ballBag{balls: slices.Clone(pool)}
	}
	custCount := make(map[bgp.ASN]int, cfg.N)
	scans := 0
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
		total := 0
		for _, a := range bag.balls {
			if !exclude[a] {
				total++
			}
		}
		if total == 0 {
			return 0, false
		}
		scans++
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
	numProviders := func() int {
		n := 1
		p := 1 - 1/cfg.MeanProviders
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
			link(p, child)
			custCount[p]++
			bag.balls = append(bag.balls, p)
			excl[p] = true
		}
		return nil
	}

	t1Bag := newBag(t1)
	for _, a := range t2 {
		if err := attach(a, t1Bag); err != nil {
			return nil, 0, err
		}
	}
	t2Bag := newBag(t2)
	for _, a := range t3 {
		bag := t2Bag
		if rng.Float64() < 0.08 {
			bag = t1Bag
		}
		if err := attach(a, bag); err != nil {
			return nil, 0, err
		}
	}
	transit := append(slices.Clone(t2), t3...)
	transitBag := newBag(transit)
	for _, a := range transit {
		for k := 0; k < custCount[a]; k++ {
			transitBag.balls = append(transitBag.balls, a)
		}
	}
	for _, a := range stubs {
		if err := attach(a, transitBag); err != nil {
			return nil, 0, err
		}
	}

	addPeers := func(members, pool []bgp.ASN, mean float64) error {
		if mean <= 0 || len(pool) < 2 {
			return nil
		}
		for _, a := range members {
			k := 0
			for rng.Float64() < (mean/2)/(mean/2+1) && k < int(mean*2)+1 {
				k++
			}
			for ; k > 0; k-- {
				p := pool[rng.Intn(len(pool))]
				if p == a || linked[pair{a, p}] {
					continue
				}
				if err := b.AddP2P(a, p); err != nil {
					return err
				}
				link(a, p)
			}
		}
		return nil
	}
	if err := addPeers(t2, t2, cfg.PeerDegreeT2); err != nil {
		return nil, 0, err
	}
	if err := addPeers(t3, t3, cfg.PeerDegreeT3); err != nil {
		return nil, 0, err
	}
	nContent := int(float64(len(stubs)) * cfg.ContentFrac / (1 - cfg.LargeTransitFrac - cfg.SmallTransitFrac))
	if nContent > len(stubs) {
		nContent = len(stubs)
	}
	content := stubs[:nContent]
	peerPool := append(append(slices.Clone(t2), t3...), content...)
	if err := addPeers(content, peerPool, cfg.PeerDegreeContent); err != nil {
		return nil, 0, err
	}

	g, err := b.Build()
	return g, scans, err
}

// TestGenerateMatchesParent holds the index-based Generate to the
// map-based reference: the same ASNs in the same registration order, the
// same Digest and the same serial-2 bytes, on default and Internet-scale
// configs, on a two-member core that drives pick into its exact scan, with
// peering off, and with means Validate lets through unchecked.
func TestGenerateMatchesParent(t *testing.T) {
	type row struct {
		name     string
		cfg      GenConfig
		wantScan bool // the reference must draw from pick's exact scan
	}
	var rows []row
	for _, n := range []int{16, 500, 4000} {
		for _, seed := range []int64{1, 2, 3} {
			cfg := DefaultGenConfig(n)
			cfg.Seed = seed
			// Tier1=10 needs N >= 22: the smallest graph keeps the
			// largest core that validates (and, at N=16, no tier 2).
			cfg.Tier1 = min(cfg.Tier1, n/2-1)
			rows = append(rows, row{name: "default", cfg: cfg})
		}
	}
	rows = append(rows,
		row{name: "internet", cfg: InternetGenConfig(2000)},
		row{name: "internet", cfg: InternetGenConfig(20000)})
	// A tiny graph with many providers each: some ASes exclude nearly all
	// of a small bag's balls, and pick's 24 tries all miss.
	twoCore := DefaultGenConfig(30)
	twoCore.Tier1, twoCore.MeanProviders = 2, 5
	rows = append(rows, row{name: "tier1=2", cfg: twoCore, wantScan: true})
	noPeers := DefaultGenConfig(1000)
	noPeers.PeerDegreeT2, noPeers.PeerDegreeT3, noPeers.PeerDegreeContent = 0, 0, 0
	rows = append(rows, row{name: "no-peering", cfg: noPeers})
	// Validate checks none of these means; the generator sizes its tables
	// from them, so they must not break it.
	odd := DefaultGenConfig(1000)
	odd.MeanProviders, odd.PeerDegreeT2, odd.PeerDegreeT3, odd.PeerDegreeContent = math.NaN(), -7, math.Inf(1), math.NaN()
	rows = append(rows, row{name: "odd-means", cfg: odd})

	for _, r := range rows {
		want, scans, wantErr := parentGenerate(r.cfg)
		got, err := Generate(r.cfg)
		if wantErr != nil || err != nil {
			t.Fatalf("%s n=%d seed=%d: Generate error %v, reference %v", r.name, r.cfg.N, r.cfg.Seed, err, wantErr)
		}
		if r.wantScan && scans == 0 {
			t.Errorf("%s n=%d: the reference never drew from pick's exact scan", r.name, r.cfg.N)
		}
		if !slices.Equal(got.ASNs(), want.ASNs()) {
			t.Errorf("%s n=%d seed=%d: ASNs() differ", r.name, r.cfg.N, r.cfg.Seed)
		}
		if Digest(got) != Digest(want) {
			t.Errorf("%s n=%d seed=%d: Digest %#x, reference %#x", r.name, r.cfg.N, r.cfg.Seed, Digest(got), Digest(want))
		}
		var gb, wb bytes.Buffer
		if err := WriteSerial2(&gb, got); err != nil {
			t.Fatal(err)
		}
		if err := WriteSerial2(&wb, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Errorf("%s n=%d seed=%d: serial-2 bytes differ", r.name, r.cfg.N, r.cfg.Seed)
		}
	}
}
