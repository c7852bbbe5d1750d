package routing

import (
	"strings"
	"testing"

	"aspp/internal/topology"
)

func TestResultOriginAccessors(t *testing.T) {
	g := testGraph(t)
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 2})
	if got := res.Origin(); got != 100 {
		t.Errorf("Origin = %v, want 100", got)
	}
	if res.Graph() != g {
		t.Error("Graph() mismatch")
	}
	if !res.Reachable(100) {
		t.Error("origin not reachable")
	}
	if res.PathOf(100) != nil {
		t.Error("origin has a non-nil path to itself")
	}
	if got := res.HopsToOrigin(100); got != 0 {
		t.Errorf("HopsToOrigin(origin) = %d, want 0", got)
	}
	if got := res.HopsToOrigin(424242); got != -1 {
		t.Errorf("HopsToOrigin(unknown) = %d, want -1", got)
	}
	if res.PathOf(424242) != nil {
		t.Error("unknown AS has a path")
	}
	if res.Reachable(424242) {
		t.Error("unknown AS reachable")
	}
}

func TestResultViaSetUnknownTarget(t *testing.T) {
	g := testGraph(t)
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 2})
	via := res.ViaSet(424242)
	for i, v := range via {
		if v {
			t.Fatalf("ViaSet(unknown)[%d] = true", i)
		}
	}
	if got := res.CountVia(424242); got != 0 {
		t.Errorf("CountVia(unknown) = %d", got)
	}
}

func TestResultHopsVsLenWithPrepends(t *testing.T) {
	g := testGraph(t)
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 5})
	// AS 200's path: 60 20 10 30 100×5 — 9 entries, 5 unique hops.
	i200, _ := g.Index(200)
	if got := res.Len[i200]; got != 9 {
		t.Errorf("Len = %d, want 9", got)
	}
	if got := res.HopsToOrigin(200); got != 5 {
		t.Errorf("HopsToOrigin = %d, want 5", got)
	}
	if got := res.PathOf(200).UniqueLen(); got != 5 {
		t.Errorf("UniqueLen = %d, want 5", got)
	}
}

func TestResultPollutedCountWithoutVia(t *testing.T) {
	g := testGraph(t)
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 2})
	if res.Via != nil {
		t.Fatal("plain propagation set Via")
	}
	if got := res.PollutedCount(); got != 0 {
		t.Errorf("PollutedCount without Via = %d, want 0", got)
	}
}

func TestGraphLinksIncludeSiblings(t *testing.T) {
	b := topology.NewBuilder()
	if err := b.AddP2C(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := b.AddS2S(2, 3); err != nil {
		t.Fatal(err)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.NumLinks(); got != 2 {
		t.Errorf("NumLinks = %d, want 2", got)
	}
	var buf strings.Builder
	if err := topology.WriteSerial2(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\n2|3|2\n") {
		t.Errorf("sibling link missing from the serial-2 links:\n%s", buf.String())
	}
}
