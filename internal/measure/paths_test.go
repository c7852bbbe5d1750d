package measure_test

import (
	"math"
	"reflect"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/experiment"
	"aspp/internal/measure"
	"aspp/internal/relinfer"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// buildGraph builds a graph from provider->customer, peer and sibling links.
func buildGraph(t *testing.T, p2c, p2p, s2s [][2]bgp.ASN) *topology.Graph {
	t.Helper()
	b := topology.NewBuilder()
	for _, l := range p2c {
		if err := b.AddP2C(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range p2p {
		if err := b.AddP2P(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range s2s {
		if err := b.AddS2S(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// referenceStats is PathStats built from the reference engine's paths: each
// reachable AS's hop count is its path's length with the origin counted once.
func referenceStats(t *testing.T, g *topology.Graph, origins []bgp.ASN) measure.PathStats {
	t.Helper()
	ps := measure.PathStats{Dist: map[int]float64{}}
	counts := map[int]int{}
	reachable, hopSum := 0, 0
	for _, o := range origins {
		ref, err := routing.PropagateReference(g, routing.Announcement{Origin: o, Prepend: 1}, nil)
		if err != nil {
			t.Fatalf("reference from %v: %v", o, err)
		}
		for _, asn := range g.ASNs() {
			if asn == o {
				continue
			}
			ps.Samples++
			path := ref.PathOf(asn)
			if path == nil {
				continue
			}
			h := path.UniqueLen()
			reachable++
			hopSum += h
			counts[h]++
			ps.MaxHops = max(ps.MaxHops, h)
		}
	}
	ps.ReachableFrac = float64(reachable) / float64(ps.Samples)
	if reachable > 0 {
		ps.MeanHops = float64(hopSum) / float64(reachable)
	}
	for h, c := range counts {
		ps.Dist[h] = float64(c) / float64(reachable)
	}
	return ps
}

// TestMeasurePathsPrefersCustomerRoute: A can reach O through its provider
// P in 2 hops or down its customer chain B, C in 3. Gao–Rexford prefers the
// customer route whatever its length, so A's path has 3 hops. A shortest-
// route-of-any-class count reports 2.
func TestMeasurePathsPrefersCustomerRoute(t *testing.T) {
	const P, O, A, B, C = 1, 2, 3, 4, 5
	g := buildGraph(t, [][2]bgp.ASN{{P, O}, {P, A}, {A, B}, {B, C}, {C, O}}, nil, nil)
	ps, err := measure.MeasurePaths(g, []bgp.ASN{O})
	if err != nil {
		t.Fatal(err)
	}
	// P 1 hop, C 1, B 2, A 3.
	want := measure.PathStats{Samples: 4, MeanHops: 7.0 / 4, MaxHops: 3, ReachableFrac: 1,
		Dist: map[int]float64{1: 0.5, 2: 0.25, 3: 0.25}}
	if !reflect.DeepEqual(ps, want) {
		t.Fatalf("MeasurePaths = %+v, want %+v", ps, want)
	}
}

// TestMeasurePathsSmallGraph hand-checks the hop counts from one origin:
// from 100, AS 300 is 100-30-10-20-50-300 via the peer link at the top,
// and 200 hears 100 over their peer link rather than through 40.
func TestMeasurePathsSmallGraph(t *testing.T) {
	g := buildGraph(t,
		[][2]bgp.ASN{{10, 30}, {10, 40}, {20, 40}, {20, 50}, {30, 100}, {40, 200}, {50, 300}},
		[][2]bgp.ASN{{10, 20}, {100, 200}}, nil)
	ps, err := measure.MeasurePaths(g, []bgp.ASN{100})
	if err != nil {
		t.Fatal(err)
	}
	// 30:1 200:1 10:2 20:3 40:3 50:4 300:5.
	want := measure.PathStats{Samples: 7, MeanHops: 19.0 / 7, MaxHops: 5, ReachableFrac: 1,
		Dist: map[int]float64{1: 2.0 / 7, 2: 1.0 / 7, 3: 2.0 / 7, 4: 1.0 / 7, 5: 1.0 / 7}}
	if !reflect.DeepEqual(ps, want) {
		t.Fatalf("MeasurePaths = %+v, want %+v", ps, want)
	}

	all, err := measure.MeasurePaths(g, g.ASNs())
	if err != nil {
		t.Fatal(err)
	}
	if all.Samples != 8*7 || all.ReachableFrac != 1 {
		t.Errorf("Samples = %d, ReachableFrac = %v, want 56 and 1 (connected graph)", all.Samples, all.ReachableFrac)
	}
	if _, err := measure.MeasurePaths(g, nil); err == nil {
		t.Error("no origins measured without an error")
	}
	if _, err := measure.MeasurePaths(g, []bgp.ASN{999}); err == nil {
		t.Error("an origin outside the graph measured without an error")
	}
}

func TestMeasurePathsInternetLike(t *testing.T) {
	cfg := topology.DefaultGenConfig(2000)
	cfg.Seed = 3
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := measure.MeasurePaths(g, relinfer.SampleOrigins(g, 30))
	if err != nil {
		t.Fatalf("MeasurePaths: %v", err)
	}
	if want := 30 * (g.NumASes() - 1); ps.Samples != want {
		t.Errorf("Samples = %d, want 30·(n−1) = %d", ps.Samples, want)
	}
	// The generated Internet must look like the real one: everything
	// reachable, mean path a handful of hops (the paper pads 3 because it
	// is "half of the average AS path length" — i.e. mean ~6 on the 2011
	// Internet; compressed graphs come out a bit shorter).
	if ps.ReachableFrac < 0.999 {
		t.Errorf("ReachableFrac = %v, want ~1", ps.ReachableFrac)
	}
	if ps.MeanHops < 2.5 || ps.MeanHops > 7 {
		t.Errorf("MeanHops = %.2f, want 2.5..7", ps.MeanHops)
	}
	if ps.MaxHops > 14 {
		t.Errorf("MaxHops = %d, suspiciously long", ps.MaxHops)
	}
	sum := 0.0
	for _, f := range ps.Dist {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("distribution sums to %v", sum)
	}
}

// TestMeasurePathsAgreesWithReference holds every sampled hop count to the
// reference engine's path, on generated graphs and on a fig11-style sibling
// graft: per (origin, AS) pair off the kernel row MeasurePaths reads, and
// the whole PathStats against one built from the reference paths.
func TestMeasurePathsAgreesWithReference(t *testing.T) {
	plain := func(cfg topology.GenConfig) *topology.Graph {
		g, err := topology.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	def := topology.DefaultGenConfig(600)
	def.Seed = 5
	base := plain(def)
	attacker, err := experiment.PickContentStub(base)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := experiment.PickTier1ByDegree(base, 2)
	if err != nil {
		t.Fatal(err)
	}
	sib, err := experiment.BuildSiblingScenario(base, victim, attacker, 65530)
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*topology.Graph{
		"default":        base,
		"internet":       plain(topology.InternetGenConfig(2000)),
		"fig11 sibling":  sib.Graph,
		"default n=1500": plain(topology.DefaultGenConfig(1500)),
	}
	for name, g := range graphs {
		origins := relinfer.SampleOrigins(g, 12)
		if name == "fig11 sibling" {
			origins = append(origins, victim, sib.Sibling, attacker)
		}
		s := routing.NewScratch()
		for _, o := range origins {
			ann := routing.Announcement{Origin: o, Prepend: 1}
			ref, err := routing.PropagateReference(g, ann, nil)
			if err != nil {
				t.Fatalf("%s: reference from %v: %v", name, o, err)
			}
			res, err := routing.PropagateScratch(g, ann, s)
			if err != nil {
				t.Fatalf("%s: kernel from %v: %v", name, o, err)
			}
			for i, asn := range g.ASNs() {
				if asn == o {
					continue
				}
				want := ref.PathOf(asn).UniqueLen()
				k, _ := g.Index(asn)
				got := 0
				if res.Class[k] != routing.ClassNone {
					got = int(res.Len[k]-int32(res.Prep[k])) + 1
				}
				if got != want {
					t.Fatalf("%s: origin %v, AS %v (#%d): kernel row gives %d hops, reference path %v",
						name, o, asn, i, got, ref.PathOf(asn))
				}
			}
		}
		ps, err := measure.MeasurePaths(g, origins)
		if err != nil {
			t.Fatalf("%s: MeasurePaths: %v", name, err)
		}
		if want := referenceStats(t, g, origins); !reflect.DeepEqual(ps, want) {
			t.Errorf("%s: MeasurePaths = %+v, reference gives %+v", name, ps, want)
		}
	}
}

// TestMeasurePathsMeasuresSiblings: a sibling link is mutual transit, so
// ASes reachable only across it have paths, and they are measured.
func TestMeasurePathsMeasuresSiblings(t *testing.T) {
	g := buildGraph(t, [][2]bgp.ASN{{1, 2}}, nil, [][2]bgp.ASN{{2, 3}})
	ps, err := measure.MeasurePaths(g, g.ASNs())
	if err != nil {
		t.Fatalf("sibling graph: %v", err)
	}
	// 1-2 and 2-3 are one hop each way, 1-3 two.
	want := measure.PathStats{Samples: 6, MeanHops: 8.0 / 6, MaxHops: 2, ReachableFrac: 1,
		Dist: map[int]float64{1: 4.0 / 6, 2: 2.0 / 6}}
	if !reflect.DeepEqual(ps, want) {
		t.Fatalf("MeasurePaths = %+v, want %+v", ps, want)
	}
}
