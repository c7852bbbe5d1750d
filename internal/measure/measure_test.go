package measure

import (
	"reflect"
	"runtime"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

func surveySetup(t testing.TB, n int, seed int64) (*topology.Graph, []collector.OriginConfig) {
	t.Helper()
	cfg := topology.DefaultGenConfig(n)
	cfg.Seed = seed
	g, err := topology.Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	if err != nil {
		t.Fatalf("AssignOrigins: %v", err)
	}
	return g, origins
}

func TestRunSurveyShapes(t *testing.T) {
	g, origins := surveySetup(t, 600, 11)
	cfg := DefaultSurveyConfig()
	cfg.ChurnEvents = 120
	res, err := RunSurvey(g, origins, cfg)
	if err != nil {
		t.Fatalf("RunSurvey: %v", err)
	}
	if len(res.TableFracs) == 0 || len(res.UpdateFracs) == 0 {
		t.Fatal("empty per-monitor series")
	}
	if res.Prefixes == 0 || res.Updates == 0 {
		t.Fatalf("Prefixes=%d Updates=%d, want nonzero", res.Prefixes, res.Updates)
	}

	tableCDF, err := res.TableCDF()
	if err != nil {
		t.Fatalf("TableCDF: %v", err)
	}
	updateCDF, err := res.UpdateCDF()
	if err != nil {
		t.Fatalf("UpdateCDF: %v", err)
	}
	// Paper Fig. 5 shape checks:
	// (1) a nontrivial fraction of table routes carries prepending
	//     (paper mean ~13%, "up to 30%");
	mean := tableCDF.Mean()
	if mean < 0.02 || mean > 0.5 {
		t.Errorf("mean table prepending fraction = %.3f, want Internet-like (0.02..0.5)", mean)
	}
	// (2) update streams show more prepending than steady-state tables,
	//     because failovers expose padded backup routes.
	if updateCDF.Mean() <= tableCDF.Mean() {
		t.Errorf("updates mean (%.3f) <= tables mean (%.3f); churn model broken",
			updateCDF.Mean(), tableCDF.Mean())
	}

	// Fig. 6 shape checks: λ=2 dominates prepended table routes, with a
	// decreasing head.
	d := res.TablePrependDist
	if len(d.Values()) == 0 {
		t.Fatal("empty table prepend distribution")
	}
	if d.Fraction(2) < d.Fraction(3) || d.Fraction(3) < d.Fraction(6) {
		t.Errorf("prepend distribution head not decreasing: f(2)=%.3f f(3)=%.3f f(6)=%.3f",
			d.Fraction(2), d.Fraction(3), d.Fraction(6))
	}
	// Update routes skew to heavier padding (backup routes).
	tableMean, updateMean := histMean(t, res), histMeanUpd(t, res)
	if updateMean <= tableMean {
		t.Errorf("update prepend mean %.2f <= table mean %.2f", updateMean, tableMean)
	}
	// No prepend count below 2 may ever be recorded.
	for _, v := range d.Values() {
		if v < 2 {
			t.Errorf("prepend distribution contains λ=%d", v)
		}
	}
}

func histMean(t *testing.T, res *SurveyResult) float64 {
	t.Helper()
	return meanOf(res.TablePrependDist.Values(), res.TablePrependDist.Fraction)
}

func histMeanUpd(t *testing.T, res *SurveyResult) float64 {
	t.Helper()
	return meanOf(res.UpdatePrependDist.Values(), res.UpdatePrependDist.Fraction)
}

func meanOf(values []int, frac func(int) float64) float64 {
	m := 0.0
	for _, v := range values {
		m += float64(v) * frac(v)
	}
	return m
}

func TestRunSurveyTier1SeesMore(t *testing.T) {
	// The paper's key Fig. 5 observation: tier-1 monitors see prepended
	// routes on a larger fraction of prefixes than (multihomed) edge
	// monitors — an edge AS picks the shortest of its providers' routes,
	// filtering out long padded paths, while a tier-1 is forced by
	// customer-route preference to carry padded customer routes.
	g, origins := surveySetup(t, 1200, 12)
	cfg := DefaultSurveyConfig()
	cfg.ChurnEvents = 0
	cfg.Monitors = DefaultMonitors(g, 20, 60, 1)
	res, err := RunSurvey(g, origins, cfg)
	if err != nil {
		t.Fatalf("RunSurvey: %v", err)
	}
	if len(res.Tier1TableFracs) == 0 {
		t.Fatal("DefaultMonitors must include tier-1 feeds")
	}
	t1, err := res.Tier1CDF()
	if err != nil {
		t.Fatal(err)
	}
	var edge []float64
	for _, f := range res.TableFracs {
		if f.Tier >= 2 && len(g.Providers(f.Monitor)) >= 2 && g.IsStub(f.Monitor) {
			edge = append(edge, f.Frac)
		}
	}
	if len(edge) == 0 {
		t.Fatal("no multihomed edge monitors in set")
	}
	edgeMean := 0.0
	for _, v := range edge {
		edgeMean += v
	}
	edgeMean /= float64(len(edge))
	if t1.Mean() <= edgeMean {
		t.Errorf("tier-1 mean %.3f <= multihomed-edge mean %.3f, want >", t1.Mean(), edgeMean)
	}
}

// TestRunSurveyMemoizationEquivalence: the table leg propagates once per
// origin, over its monitors' cone, and weights the outcome by the origin's
// prefix count. That must equal a tally that propagates every prefix on its
// own over the whole graph.
func TestRunSurveyMemoizationEquivalence(t *testing.T) {
	g, origins := surveySetup(t, 300, 13)
	cfg := DefaultSurveyConfig()
	cfg.ChurnEvents = 30
	res, err := RunSurvey(g, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := map[bgp.ASN]int{}
	prepended := map[bgp.ASN]int{}
	for _, oc := range origins {
		for range oc.Prefixes {
			rt, err := routing.Propagate(g, oc.Announcement)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range res.TableFracs {
				if f.Monitor == oc.AS || !rt.Reachable(f.Monitor) {
					continue
				}
				total[f.Monitor]++
				if rt.PathOf(f.Monitor).OriginPrepend() >= 2 {
					prepended[f.Monitor]++
				}
			}
		}
	}
	for _, f := range res.TableFracs {
		if want := float64(prepended[f.Monitor]) / float64(total[f.Monitor]); f.Frac != want {
			t.Fatalf("monitor %v: table fraction %v, per-prefix tally %v", f.Monitor, f.Frac, want)
		}
	}
}

func TestRunSurveyWorkerEquivalence(t *testing.T) {
	g, origins := surveySetup(t, 300, 14)
	cfg := DefaultSurveyConfig()
	cfg.ChurnEvents = 40
	withGOMAXPROCS(t, 1)
	serial, err := RunSurvey(g, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	withGOMAXPROCS(t, 8)
	par, err := RunSurvey(g, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.UpdateFracs {
		if serial.UpdateFracs[i] != par.UpdateFracs[i] {
			t.Fatalf("worker count changed results at %d", i)
		}
	}
	if serial.Updates != par.Updates {
		t.Fatalf("update totals differ: %d vs %d", serial.Updates, par.Updates)
	}
}

func TestRunSurveyErrors(t *testing.T) {
	g, origins := surveySetup(t, 300, 15)
	if _, err := RunSurvey(g, nil, DefaultSurveyConfig()); err == nil {
		t.Error("empty origins accepted")
	}
	cfg := DefaultSurveyConfig()
	cfg.Monitors = []bgp.ASN{99999999}
	if _, err := RunSurvey(g, origins, cfg); err == nil {
		t.Error("unknown monitor accepted")
	}
}

// TestRunSurveyUpdatesMatchFullTables: the update leg reads each churn
// event's two tables at the monitors only (routing.Vantage; the rows it
// skips are poisoned). Its tallies must equal a tally over whole-graph
// tables, with a churning origin and a twice-listed AS among the monitors.
func TestRunSurveyUpdatesMatchFullTables(t *testing.T) {
	g, origins := surveySetup(t, 500, 16)
	cfg := DefaultSurveyConfig()
	cfg.ChurnEvents = 80
	events := collector.PlanChurn(origins, cfg.ChurnEvents, cfg.Seed)
	if len(events) == 0 {
		t.Fatal("no churn events")
	}
	cfg.Monitors = append(DefaultMonitors(g, 20, 10, 1), events[0].Origin)
	cfg.Monitors = append(cfg.Monitors, cfg.Monitors[3])
	res, err := RunSurvey(g, origins, cfg)
	if err != nil {
		t.Fatal(err)
	}

	byAS := map[bgp.ASN]collector.OriginConfig{}
	for _, oc := range origins {
		byAS[oc.AS] = oc
	}
	prep := func(rt *routing.Result, m bgp.ASN) int {
		if m == rt.Origin() || !rt.Reachable(m) {
			return -1
		}
		return rt.PathOf(m).OriginPrepend()
	}
	total := make([]int, len(cfg.Monitors))
	prepended := make([]int, len(cfg.Monitors))
	dist := stats.NewHistogram()
	updates := 0
	for _, ev := range events {
		oc := byAS[ev.Origin]
		steady, err := routing.Propagate(g, oc.Announcement)
		if err != nil {
			t.Fatal(err)
		}
		failedAnn := oc.Announcement
		failedAnn.PerNeighbor = map[bgp.ASN]int{ev.Primary: 0}
		for n, lam := range oc.Announcement.PerNeighbor {
			if n != ev.Primary {
				failedAnn.PerNeighbor[n] = lam
			}
		}
		failed, err := routing.Propagate(g, failedAnn)
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range cfg.Monitors {
			before, after := prep(steady, m), prep(failed, m)
			if before == after {
				continue
			}
			for _, p := range []int{after, before} {
				if p < 0 {
					continue
				}
				updates += len(oc.Prefixes)
				total[mi] += len(oc.Prefixes)
				if p >= 2 {
					prepended[mi] += len(oc.Prefixes)
					dist.AddN(p, len(oc.Prefixes))
				}
			}
		}
	}
	var want []MonitorFrac
	for mi, m := range cfg.Monitors {
		if total[mi] > 0 {
			want = append(want, MonitorFrac{Monitor: m, Tier: g.Tier(m), Frac: float64(prepended[mi]) / float64(total[mi])})
		}
	}
	sortFracs(want)
	if updates == 0 || res.Updates != updates {
		t.Fatalf("Updates = %d, whole-graph tables give %d", res.Updates, updates)
	}
	if !reflect.DeepEqual(res.UpdateFracs, want) {
		t.Fatalf("UpdateFracs = %v, whole-graph tables give %v", res.UpdateFracs, want)
	}
	if !reflect.DeepEqual(res.UpdatePrependDist, dist) {
		t.Fatal("UpdatePrependDist differs from the whole-graph tally")
	}
}

// withGOMAXPROCS sets GOMAXPROCS, and with it the survey's propagation
// fan-out, for the rest of the test.
func withGOMAXPROCS(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}
