// Package relinfer infers AS business relationships from observed AS
// paths, reproducing the paper's topology preprocessing (Section IV-A):
// Gao's degree-based algorithm, a tier-1-clique-seeded variant standing in
// for CAIDA's method, and the consensus procedure that re-runs Gao seeded
// with the agreement set of both.
//
// Inference quality is measurable here because the topology generator
// knows the ground truth; Score reports per-relationship accuracy.
package relinfer

import (
	"errors"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/measure"
	"aspp/internal/obs"
	"aspp/internal/topology"
)

// Inferred holds inferred relationships. It implements detect.RelQuerier's
// shape (RelOf), so the detection algorithm can run on inferred data the
// way a real deployment must. An Inferred is not modified once the
// inference that built it returns: set, setPeer and setSibling are called
// only inside this package before then, so RelOf answers a pair the same
// way for the graph's whole life, as detect's memo relies on.
type Inferred struct {
	// rel maps the canonical (low ASN, high ASN) pair to the relationship
	// with Link.A == low when ProviderToCustomer.
	rel map[[2]bgp.ASN]relDir
}

type relDir uint8

const (
	dirLowProvider  relDir = iota + 1 // low ASN is the provider
	dirHighProvider                   // high ASN is the provider
	dirPeer
	dirSibling // conflicting evidence (Gao phase 2 output)
)

func key(a, b bgp.ASN) ([2]bgp.ASN, bool) {
	if a <= b {
		return [2]bgp.ASN{a, b}, false
	}
	return [2]bgp.ASN{b, a}, true
}

func newInferred() *Inferred {
	return &Inferred{rel: make(map[[2]bgp.ASN]relDir)}
}

func (in *Inferred) set(provider, customer bgp.ASN) {
	k, swapped := key(provider, customer)
	if swapped {
		in.rel[k] = dirHighProvider
	} else {
		in.rel[k] = dirLowProvider
	}
}

func (in *Inferred) setPeer(a, b bgp.ASN) {
	k, _ := key(a, b)
	in.rel[k] = dirPeer
}

func (in *Inferred) setSibling(a, b bgp.ASN) {
	k, _ := key(a, b)
	in.rel[k] = dirSibling
}

// RelOf reports how b relates to a under the inferred relationships
// (topology.RelNone for unknown links; siblings map to RelPeer, the
// closest export semantics).
func (in *Inferred) RelOf(a, b bgp.ASN) topology.RelTo {
	k, swapped := key(a, b)
	d, ok := in.rel[k]
	if !ok {
		return topology.RelNone
	}
	switch d {
	case dirPeer, dirSibling:
		return topology.RelPeer
	case dirLowProvider:
		if swapped { // a is high: b (low) is a's provider
			return topology.RelProvider
		}
		return topology.RelCustomer
	default: // dirHighProvider
		if swapped { // a is high: a is the provider of b
			return topology.RelCustomer
		}
		return topology.RelProvider
	}
}

// Links exports the inferred links, sorted, for serialization and scoring.
func (in *Inferred) Links() []topology.Link {
	out := make([]topology.Link, 0, len(in.rel))
	for k, d := range in.rel {
		switch d {
		case dirLowProvider:
			out = append(out, topology.Link{A: k[0], B: k[1], Rel: topology.ProviderToCustomer})
		case dirHighProvider:
			out = append(out, topology.Link{A: k[1], B: k[0], Rel: topology.ProviderToCustomer})
		default:
			out = append(out, topology.Link{A: k[0], B: k[1], Rel: topology.PeerToPeer})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].A != out[b].A {
			return out[a].A < out[b].A
		}
		return out[a].B < out[b].B
	})
	return out
}

// peerDegreeRatio R: a top-adjacent pair is peered if their degrees are
// within a factor R (Gao's phase 3 heuristic). Gao's paper uses R≈60
// against real routing-table degrees, whose spectrum spans four orders of
// magnitude; generated topologies compress the spectrum, so R is
// calibrated to 4.
const peerDegreeRatio = 4

// GaoConfig tunes the inference.
type GaoConfig struct {
	// Seeds fixes known provider->customer pairs before voting (used by
	// the consensus procedure). Keys are (provider, customer).
	Seeds [][2]bgp.ASN
	// Tier1 marks ASes known to be peered top providers (the tier-1
	// seeded variant); adjacent tier-1s in a path are classified as peers
	// up front.
	Tier1 []bgp.ASN
}

// Gao infers relationships from AS paths using Gao's algorithm: in each
// path the highest-degree AS is the "top provider"; edges left of it vote
// customer->provider, edges right of it vote provider->customer. Votes
// classify each edge; conflicting votes beyond a tolerance become
// siblings; finally, unvoted or balanced top-adjacent edges between
// degree-comparable ASes become peers.
func Gao(paths []bgp.Path, cfg GaoConfig) (*Inferred, error) {
	if len(paths) == 0 {
		return nil, errors.New("relinfer: no paths")
	}
	// Degrees from the path set itself (transit degree).
	degree := make(map[bgp.ASN]int)
	adj := make(map[[2]bgp.ASN]struct{})
	for _, p := range paths {
		u := p.Unique()
		for i := 0; i+1 < len(u); i++ {
			k, _ := key(u[i], u[i+1])
			if _, seen := adj[k]; !seen {
				adj[k] = struct{}{}
				degree[u[i]]++
				degree[u[i+1]]++
			}
		}
	}

	tier1 := make(map[bgp.ASN]bool, len(cfg.Tier1))
	for _, a := range cfg.Tier1 {
		tier1[a] = true
	}

	// Voting: tally[k] counts (low-provider, high-provider) votes, plus
	// how many votes came from an edge adjacent to the path's top
	// provider. Peer links sit at the apex of valley-free paths, so an
	// edge whose every appearance is top-adjacent is a peering candidate
	// (Gao's phase-3 insight); transit edges deeper in the hierarchy
	// appear below other ASes' tops as well.
	type votes struct{ low, high, topAdj int }
	tally := make(map[[2]bgp.ASN]*votes, len(adj))
	vote := func(provider, customer bgp.ASN, topAdjacent bool) {
		k, swapped := key(provider, customer)
		v := tally[k]
		if v == nil {
			v = &votes{}
			tally[k] = v
		}
		if swapped {
			v.high++
		} else {
			v.low++
		}
		if topAdjacent {
			v.topAdj++
		}
	}
	for _, p := range paths {
		u := p.Unique()
		if len(u) < 2 {
			continue
		}
		// Top provider: highest degree, ties to the leftmost.
		top := 0
		for i := 1; i < len(u); i++ {
			if degree[u[i]] > degree[u[top]] {
				top = i
			}
		}
		// Left of top (monitor side): each AS's neighbor toward the top
		// is its provider. Right of top: each AS away from top is a
		// customer.
		for i := 0; i < top; i++ {
			vote(u[i+1], u[i], i+1 == top)
		}
		for i := top; i+1 < len(u); i++ {
			vote(u[i], u[i+1], i == top)
		}
	}

	in := newInferred()
	// Seeds override voting.
	seeded := make(map[[2]bgp.ASN]bool, len(cfg.Seeds))
	for _, s := range cfg.Seeds {
		in.set(s[0], s[1])
		k, _ := key(s[0], s[1])
		seeded[k] = true
	}

	for k, v := range tally {
		if seeded[k] {
			continue
		}
		a, b := k[0], k[1]
		// Known tier-1s peer with each other.
		if tier1[a] && tier1[b] {
			in.setPeer(a, b)
			continue
		}
		// Peering test: every observation of this edge was adjacent to
		// its path's top provider, and the endpoints are comparable in
		// degree and not leaves.
		da, db := degree[a], degree[b]
		lo, hi := da, db
		if lo > hi {
			lo, hi = hi, lo
		}
		peerish := v.topAdj == v.low+v.high &&
			lo > 1 && float64(hi)/float64(lo) <= peerDegreeRatio
		switch {
		case v.low > 0 && v.high > 0:
			// Conflicting transit directions. Strongly unbalanced votes
			// (Gao's L > 1 refinement) keep the majority direction;
			// balanced conflicts are peers when degree-comparable,
			// siblings otherwise.
			switch {
			case v.low > 2*v.high:
				in.set(a, b)
			case v.high > 2*v.low:
				in.set(b, a)
			case peerish:
				in.setPeer(a, b)
			default:
				in.setSibling(a, b)
			}
		case peerish:
			in.setPeer(a, b)
		case v.low > 0:
			in.set(a, b)
		case v.high > 0:
			in.set(b, a)
		}
	}
	return in, nil
}

// Tier1Seeded runs Gao with a known tier-1 clique (the paper's
// "Gao's algorithm with only Tier-1 peering links as the initial input").
func Tier1Seeded(paths []bgp.Path, tier1 []bgp.ASN) (*Inferred, error) {
	return Gao(paths, GaoConfig{Tier1: tier1})
}

// InferRelationships rebuilds g's relationships from simulated monitor
// paths (the paper's §IV-A preprocessing): Gao's algorithm, the tier-1
// seeded variant, and their consensus. It returns the consensus inference
// and its accuracy against g, the generator's ground truth. c, when non-nil,
// receives the path collection's propagations, one per sampled origin.
func InferRelationships(g *topology.Graph, originSample, nTopMonitors int, c *obs.Counters) (*Inferred, Accuracy, error) {
	monitors := measure.DefaultMonitors(g, nTopMonitors, nTopMonitors/2, 1)
	paths, err := collectPaths(g, SampleOrigins(g, originSample), monitors, 0, c)
	if err != nil {
		return nil, Accuracy{}, err
	}
	plain, err := Gao(paths, GaoConfig{})
	if err != nil {
		return nil, Accuracy{}, err
	}
	seeded, err := Tier1Seeded(paths, g.Tier1s())
	if err != nil {
		return nil, Accuracy{}, err
	}
	cons, err := Consensus(paths, plain, seeded)
	if err != nil {
		return nil, Accuracy{}, err
	}
	return cons, Score(cons, g), nil
}

// Consensus implements the paper's combination procedure: take the
// relationship pairs on which both inferences agree, then re-run Gao with
// that agreement set as seeds.
func Consensus(paths []bgp.Path, a, b *Inferred) (*Inferred, error) {
	var seeds [][2]bgp.ASN
	var tier1Peers [][2]bgp.ASN
	for k, da := range a.rel {
		db, ok := b.rel[k]
		if !ok || da != db {
			continue
		}
		switch da {
		case dirLowProvider:
			seeds = append(seeds, [2]bgp.ASN{k[0], k[1]})
		case dirHighProvider:
			seeds = append(seeds, [2]bgp.ASN{k[1], k[0]})
		case dirPeer:
			tier1Peers = append(tier1Peers, [2]bgp.ASN{k[0], k[1]})
		}
	}
	sort.Slice(seeds, func(i, j int) bool {
		if seeds[i][0] != seeds[j][0] {
			return seeds[i][0] < seeds[j][0]
		}
		return seeds[i][1] < seeds[j][1]
	})
	out, err := Gao(paths, GaoConfig{Seeds: seeds})
	if err != nil {
		return nil, err
	}
	// Agreed peers are adopted directly.
	for _, p := range tier1Peers {
		out.setPeer(p[0], p[1])
	}
	return out, nil
}

// Accuracy reports inference quality against ground truth.
type Accuracy struct {
	// Links is the number of inferred links that exist in the truth.
	Links int
	// CorrectP2C / CorrectP2P count exact matches.
	CorrectP2C, CorrectP2P int
	// WrongDirection: p2c links inferred with provider and customer
	// swapped.
	WrongDirection int
	// Misclassified: p2c labeled p2p or vice versa (including siblings).
	Misclassified int
	// Unknown: inferred links absent from the truth graph.
	Unknown int
}

// Overall returns the fraction of truth-present links classified exactly.
func (a Accuracy) Overall() float64 {
	if a.Links == 0 {
		return 0
	}
	return float64(a.CorrectP2C+a.CorrectP2P) / float64(a.Links)
}

// Score compares inferred relationships to the generator's ground truth.
func Score(in *Inferred, truth *topology.Graph) Accuracy {
	var acc Accuracy
	for _, l := range in.Links() {
		rel := truth.RelOf(l.A, l.B)
		if rel == topology.RelNone {
			acc.Unknown++
			continue
		}
		acc.Links++
		switch l.Rel {
		case topology.ProviderToCustomer:
			switch rel {
			case topology.RelCustomer: // B is A's customer: correct
				acc.CorrectP2C++
			case topology.RelProvider:
				acc.WrongDirection++
			default:
				acc.Misclassified++
			}
		case topology.PeerToPeer:
			if rel == topology.RelPeer {
				acc.CorrectP2P++
			} else {
				acc.Misclassified++
			}
		}
	}
	return acc
}
