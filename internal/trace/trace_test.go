package trace

import (
	"strings"
	"testing"

	"aspp/internal/bgp"
)

// facebookRegions places the Table I actors.
func facebookRegions() RegionMap {
	return RegionMap{
		7132:  RegionUSWest,   // AT&T regional (probe's access network)
		7018:  RegionUSWest,   // AT&T
		3356:  RegionUSWest,   // Level3
		4134:  RegionEastAsia, // China Telecom
		9318:  RegionEastAsia, // Korean ISP
		32934: RegionUSWest,   // Facebook
	}
}

func TestRunDetourDelaysDominate(t *testing.T) {
	cfg := Config{Source: 7132, Regions: facebookRegions(), Seed: 1}

	normal := Run(bgp.Path{7018, 3356, 32934, 32934, 32934, 32934, 32934}, cfg)
	hijacked := Run(bgp.Path{7018, 4134, 9318, 32934, 32934, 32934}, cfg)

	last := func(h []Hop) int64 { return h[len(h)-1].RTT.Milliseconds() }
	// The domestic route stays well under 100ms; the trans-Pacific detour
	// more than doubles it (paper: 41ms -> ~249ms).
	if last(normal) > 100 {
		t.Errorf("normal route RTT = %dms, want < 100ms", last(normal))
	}
	if last(hijacked) < 2*last(normal) {
		t.Errorf("hijacked RTT %dms not >= 2x normal %dms", last(hijacked), last(normal))
	}
}

func TestRunMonotonicRTT(t *testing.T) {
	cfg := Config{Source: 7132, Regions: facebookRegions(), Seed: 7}
	hops := Run(bgp.Path{7018, 4134, 9318, 32934, 32934, 32934}, cfg)
	if len(hops) < 5 {
		t.Fatalf("only %d hops", len(hops))
	}
	for i := 1; i < len(hops); i++ {
		if hops[i].RTT < hops[i-1].RTT {
			t.Errorf("RTT decreased at hop %d: %v -> %v", i+1, hops[i-1].RTT, hops[i].RTT)
		}
		if hops[i].Index != i+1 {
			t.Errorf("hop index %d, want %d", hops[i].Index, i+1)
		}
	}
	if hops[0].AS != 0 {
		t.Error("first hop must be the local gateway")
	}
	if got := hops[len(hops)-1].AS; got != 32934 {
		t.Errorf("last hop AS = %v, want destination 32934", got)
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Source: 7132, Regions: facebookRegions(), Seed: 3}
	p := bgp.Path{7018, 3356, 32934, 32934}
	a, b := Run(p, cfg), Run(p, cfg)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("hop %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRunCollapsesPrepends(t *testing.T) {
	cfg := Config{Source: 7132, Regions: facebookRegions(), Seed: 3}
	// Five prepends of the origin must not create five ASes worth of hops.
	hops := Run(bgp.Path{7018, 32934, 32934, 32934, 32934, 32934}, cfg)
	// gateway + routersPerAS (2) in 7018 + 3 in the destination = 6;
	// uncollapsed, the four extra copies would add 8 more.
	if len(hops) != 6 {
		t.Errorf("got %d hops, want 6 (prepends collapsed)", len(hops))
	}
}

func TestRandomRegionsDeterministic(t *testing.T) {
	asns := []bgp.ASN{1, 2, 3, 4, 5}
	a, b := RandomRegions(asns, 5), RandomRegions(asns, 5)
	for _, asn := range asns {
		if a[asn] != b[asn] {
			t.Fatal("RandomRegions not deterministic")
		}
		if a[asn] == 0 {
			t.Fatal("unassigned region")
		}
	}
}

func TestRegionStrings(t *testing.T) {
	for _, r := range allRegions {
		if strings.HasPrefix(r.String(), "Region(") {
			t.Errorf("region %d missing name", r)
		}
	}
}

func TestRenderShape(t *testing.T) {
	cfg := Config{Source: 7132, Regions: facebookRegions(), Seed: 1}
	out := Render(Run(bgp.Path{7018, 4134, 9318, 32934, 32934, 32934}, cfg))
	if !strings.Contains(out, "AS4134") || !strings.Contains(out, "AS32934") {
		t.Errorf("render missing ASNs:\n%s", out)
	}
	if !strings.HasPrefix(out, "Hop") {
		t.Error("render missing header")
	}
	lines := strings.Count(out, "\n")
	if lines < 6 {
		t.Errorf("render too short: %d lines", lines)
	}
}

func TestDelaySymmetry(t *testing.T) {
	for _, a := range allRegions {
		for _, b := range allRegions {
			if delayBetween(a, b) != delayBetween(b, a) {
				t.Errorf("asymmetric delay %v<->%v", a, b)
			}
			if delayBetween(a, b) <= 0 {
				t.Errorf("nonpositive delay %v<->%v", a, b)
			}
		}
	}
}
