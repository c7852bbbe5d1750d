package collector

import (
	"maps"
	"math/rand"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

func surveyGraph(t testing.TB, n int, seed int64) *topology.Graph {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return g
}

func TestAssignOriginsBasics(t *testing.T) {
	g := surveyGraph(t, 400, 5)
	cfg := DefaultPolicyConfig()
	origins, err := AssignOrigins(g, cfg)
	if err != nil {
		t.Fatalf("AssignOrigins: %v", err)
	}
	if len(origins) == 0 {
		t.Fatal("no origins assigned")
	}

	counts := make(map[PolicyStyle]int)
	for _, oc := range origins {
		counts[oc.Style]++
	}
	if counts[StyleBackup] == 0 || counts[StyleLoadBalance] == 0 || counts[StyleUniform] == 0 {
		t.Errorf("style mix missing entries: %v", counts)
	}
	// Multihomed origins prepend at the configured rate; single-homed
	// ones far less (they gain little from ASPP).
	var multi, multiPrep int
	for _, oc := range origins {
		if len(g.Providers(oc.AS)) >= 2 {
			multi++
			if oc.Style != StyleNone {
				multiPrep++
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multihomed origins")
	}
	frac := float64(multiPrep) / float64(multi)
	if frac < cfg.PrependFrac-0.1 || frac > cfg.PrependFrac+0.1 {
		t.Errorf("multihomed prepending fraction = %.2f, want ~%.2f", frac, cfg.PrependFrac)
	}

	seen := make(map[string]bool)
	for _, oc := range origins {
		if len(oc.Prefixes) == 0 {
			t.Fatalf("origin %v has no prefixes", oc.AS)
		}
		for _, p := range oc.Prefixes {
			if seen[p.String()] {
				t.Fatalf("duplicate prefix %v", p)
			}
			seen[p.String()] = true
			if p.Bits() != 24 {
				t.Errorf("prefix %v is not a /24", p)
			}
		}
		// Every announcement must be valid against the topology.
		if err := oc.Announcement.Validate(g); err != nil {
			t.Errorf("origin %v: invalid announcement: %v", oc.AS, err)
		}
		if oc.Style == StyleBackup {
			if oc.Primary == 0 {
				t.Errorf("backup origin %v missing primary", oc.AS)
			}
			if lam := oc.Announcement.PerNeighbor[oc.Primary]; lam != 1 {
				t.Errorf("backup origin %v primary λ = %d, want 1", oc.AS, lam)
			}
			if oc.Announcement.Prepend < 3 {
				t.Errorf("backup origin %v pads backups with λ=%d, want heavy",
					oc.AS, oc.Announcement.Prepend)
			}
		}
	}
}

func TestAssignOriginsDeterministic(t *testing.T) {
	g := surveyGraph(t, 300, 6)
	a, err := AssignOrigins(g, DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := AssignOrigins(g, DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("origin counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].AS != b[i].AS || a[i].Style != b[i].Style ||
			a[i].Primary != b[i].Primary || len(a[i].Prefixes) != len(b[i].Prefixes) {
			t.Fatalf("origin %d differs across runs", i)
		}
	}
}

func TestAssignOriginsValidation(t *testing.T) {
	g := surveyGraph(t, 300, 6)
	bad := []PolicyConfig{
		{PrependFrac: -0.1, BackupWeight: 1, MeanPrefixes: 1, MaxLambda: 5},
		{PrependFrac: 0.5, MeanPrefixes: 1, MaxLambda: 5}, // zero weights
		{PrependFrac: 0.5, BackupWeight: 1, MeanPrefixes: 0.5, MaxLambda: 5},
		{PrependFrac: 0.5, BackupWeight: 1, MeanPrefixes: 1, MaxLambda: 1},
	}
	for i, cfg := range bad {
		if _, err := AssignOrigins(g, cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestSampleLambdaDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := make(map[int]int)
	const n = 20000
	for i := 0; i < n; i++ {
		l := sampleLambda(rng, 30)
		if l < 2 || l > 30 {
			t.Fatalf("λ = %d out of range", l)
		}
		h[l]++
	}
	// Mode at 2, then 3; a real but small tail above 10.
	if h[2] <= h[3] || h[3] <= h[4] {
		t.Errorf("λ histogram not decreasing at head: 2:%d 3:%d 4:%d", h[2], h[3], h[4])
	}
	tail := 0
	for l, c := range h {
		if l > 10 {
			tail += c
		}
	}
	tailFrac := float64(tail) / float64(n)
	if tailFrac < 0.001 || tailFrac > 0.08 {
		t.Errorf("tail fraction (λ>10) = %.4f, want small but nonzero", tailFrac)
	}
}

func TestPlanChurn(t *testing.T) {
	g := surveyGraph(t, 400, 5)
	origins, err := AssignOrigins(g, DefaultPolicyConfig())
	if err != nil {
		t.Fatal(err)
	}
	events := PlanChurn(origins, 50, 3)
	if len(events) != 50 {
		t.Fatalf("got %d events, want 50", len(events))
	}
	byAS := make(map[string]OriginConfig)
	for _, oc := range origins {
		byAS[oc.AS.String()] = oc
	}
	for _, ev := range events {
		oc, ok := byAS[ev.Origin.String()]
		if !ok {
			t.Fatalf("event origin %v unknown", ev.Origin)
		}
		if oc.Style != StyleBackup || oc.Primary != ev.Primary {
			t.Errorf("event %v does not match a backup origin", ev)
		}
	}
	// Deterministic.
	again := PlanChurn(origins, 50, 3)
	for i := range events {
		if events[i] != again[i] {
			t.Fatalf("churn plan differs at %d", i)
		}
	}
	if got := PlanChurn(nil, 10, 1); got != nil {
		t.Error("churn over no origins should be empty")
	}
}

// TestChurnEventFailover: the failover announcement is the steady one with
// λ 0 toward the primary, whatever per-neighbor table the origin had, and
// the origin's own table is left as it was (every event of that origin
// reads it).
func TestChurnEventFailover(t *testing.T) {
	ev := ChurnEvent{Origin: 100, Primary: 30}
	for _, steady := range []routing.Announcement{
		{Origin: 100, Prepend: 5},
		{Origin: 100, Prepend: 5, PerNeighbor: map[bgp.ASN]int{30: 1, 40: 2}},
	} {
		before := maps.Clone(steady.PerNeighbor)
		got := ev.Failover(steady)
		want := map[bgp.ASN]int{30: 0}
		for n, lam := range before {
			if n != 30 {
				want[n] = lam
			}
		}
		if got.Origin != 100 || got.Prepend != 5 || !maps.Equal(got.PerNeighbor, want) {
			t.Errorf("Failover(%+v) = %+v, want per-neighbor %v", steady, got, want)
		}
		if !maps.Equal(steady.PerNeighbor, before) {
			t.Errorf("Failover rewrote the steady table: %v, was %v", steady.PerNeighbor, before)
		}
	}
}
