// Package trace simulates data-plane traceroutes over AS-level paths: each
// AS expands to one or more router hops with stable synthetic addresses,
// and per-hop round-trip times accumulate region-to-region propagation
// delays — enough to reproduce the paper's Table I, where the hijacked
// route to Facebook detours US → China → Korea → US and RTT jumps from
// ~41 ms to ~249 ms.
package trace

import (
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"time"

	"aspp/internal/bgp"
)

// Region is a coarse geographic location used for propagation delay.
type Region uint8

const (
	RegionUSWest Region = iota + 1
	RegionUSEast
	RegionEurope
	RegionEastAsia
	RegionSouthAsia
	RegionOceania
	RegionSouthAmerica
)

// String names the region.
func (r Region) String() string {
	switch r {
	case RegionUSWest:
		return "us-west"
	case RegionUSEast:
		return "us-east"
	case RegionEurope:
		return "europe"
	case RegionEastAsia:
		return "east-asia"
	case RegionSouthAsia:
		return "south-asia"
	case RegionOceania:
		return "oceania"
	case RegionSouthAmerica:
		return "south-america"
	default:
		return fmt.Sprintf("Region(%d)", uint8(r))
	}
}

// regions for iteration/randomization.
var allRegions = []Region{
	RegionUSWest, RegionUSEast, RegionEurope, RegionEastAsia,
	RegionSouthAsia, RegionOceania, RegionSouthAmerica,
}

// oneWayMillis is the speed-of-light-plus-routing one-way delay between
// regions, in milliseconds. Symmetric; the diagonal is intra-region.
var oneWayMillis = map[[2]Region]float64{
	{RegionUSWest, RegionUSWest}:             8,
	{RegionUSEast, RegionUSEast}:             8,
	{RegionEurope, RegionEurope}:             9,
	{RegionEastAsia, RegionEastAsia}:         12,
	{RegionSouthAsia, RegionSouthAsia}:       14,
	{RegionOceania, RegionOceania}:           10,
	{RegionSouthAmerica, RegionSouthAmerica}: 12,

	{RegionUSWest, RegionUSEast}:       32,
	{RegionUSWest, RegionEurope}:       70,
	{RegionUSWest, RegionEastAsia}:     55,
	{RegionUSWest, RegionSouthAsia}:    95,
	{RegionUSWest, RegionOceania}:      70,
	{RegionUSWest, RegionSouthAmerica}: 85,

	{RegionUSEast, RegionEurope}:       40,
	{RegionUSEast, RegionEastAsia}:     85,
	{RegionUSEast, RegionSouthAsia}:    110,
	{RegionUSEast, RegionOceania}:      100,
	{RegionUSEast, RegionSouthAmerica}: 60,

	{RegionEurope, RegionEastAsia}:     95,
	{RegionEurope, RegionSouthAsia}:    65,
	{RegionEurope, RegionOceania}:      140,
	{RegionEurope, RegionSouthAmerica}: 95,

	{RegionEastAsia, RegionSouthAsia}:    45,
	{RegionEastAsia, RegionOceania}:      60,
	{RegionEastAsia, RegionSouthAmerica}: 140,

	{RegionSouthAsia, RegionOceania}:      75,
	{RegionSouthAsia, RegionSouthAmerica}: 160,

	{RegionOceania, RegionSouthAmerica}: 95,
}

// delayBetween returns the one-way delay between regions in milliseconds.
func delayBetween(a, b Region) float64 {
	if d, ok := oneWayMillis[[2]Region{a, b}]; ok {
		return d
	}
	if d, ok := oneWayMillis[[2]Region{b, a}]; ok {
		return d
	}
	return 50 // unknown pairing: generic long-haul
}

// RegionMap assigns a region to every AS.
type RegionMap map[bgp.ASN]Region

// RandomRegions assigns regions deterministically from a seed, for ASes
// without explicit placement.
func RandomRegions(asns []bgp.ASN, seed int64) RegionMap {
	rng := rand.New(rand.NewSource(seed))
	m := make(RegionMap, len(asns))
	for _, a := range asns {
		m[a] = allRegions[rng.Intn(len(allRegions))]
	}
	return m
}

// Hop is one traceroute line.
type Hop struct {
	Index int
	RTT   time.Duration
	Addr  netip.Addr
	AS    bgp.ASN // 0 for the local first hop
}

// Config controls a traceroute simulation.
type Config struct {
	// Source is the probing host's AS (e.g. an AT&T customer).
	Source bgp.ASN
	// Regions places each AS; missing ASes default to the source region.
	Regions RegionMap
	// Seed drives address and jitter generation.
	Seed int64
}

// routersPerAS is the number of router hops within each transit AS (real
// paths show 1..3); the destination AS adds one more, its server.
const routersPerAS = 2

// Run simulates a traceroute from cfg.Source along the AS path (as found
// in the source's RIB: next hop first, origin last). The first hop is the
// local gateway. RTTs are cumulative and non-decreasing, as in real
// traceroute output under stable routing.
func Run(path bgp.Path, cfg Config) []Hop {
	rng := rand.New(rand.NewSource(cfg.Seed))
	srcRegion := cfg.Regions[cfg.Source]
	if srcRegion == 0 {
		srcRegion = RegionUSWest
	}
	region := func(a bgp.ASN) Region {
		if r, ok := cfg.Regions[a]; ok {
			return r
		}
		return srcRegion
	}

	hops := []Hop{{
		Index: 1,
		RTT:   time.Millisecond,
		Addr:  netip.AddrFrom4([4]byte{192, 168, 1, 1}),
	}}
	oneWay := 1.0 // accumulated one-way latency in ms
	prev := srcRegion
	seq := path.Unique()
	for i, asn := range seq {
		cur := region(asn)
		oneWay += delayBetween(prev, cur)
		prev = cur
		n := routersPerAS
		if i == len(seq)-1 {
			n = routersPerAS + 1 // destination network: edge + server hops
		}
		for r := 0; r < n; r++ {
			if r > 0 {
				oneWay += 0.4 + rng.Float64()*2.5 // intra-AS router hops
			}
			jitter := rng.Float64() * 1.5
			hops = append(hops, Hop{
				Index: len(hops) + 1,
				RTT:   time.Duration((oneWay*2 + jitter) * float64(time.Millisecond)),
				Addr:  routerAddr(asn, r, rng),
				AS:    asn,
			})
		}
	}
	return hops
}

// routerAddr synthesizes a stable-looking router address inside an AS's
// infrastructure space.
func routerAddr(asn bgp.ASN, router int, rng *rand.Rand) netip.Addr {
	return netip.AddrFrom4([4]byte{
		byte(100 + asn%100),
		byte(asn >> 8),
		byte(asn),
		byte(1 + router*16 + rng.Intn(14)),
	})
}

// Render formats hops as the paper's Table I: hop, delay, IP, ASN.
func Render(hops []Hop) string {
	var sb strings.Builder
	sb.WriteString("Hop  Delay    IP               ASN\n")
	for _, h := range hops {
		asn := ""
		if h.AS != 0 {
			asn = h.AS.String()
		}
		fmt.Fprintf(&sb, "%-4d %-8s %-16s %s\n",
			h.Index, fmt.Sprintf("%d ms", h.RTT.Milliseconds()), h.Addr, asn)
	}
	return sb.String()
}
