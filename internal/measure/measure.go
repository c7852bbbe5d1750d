// Package measure characterizes AS-path-prepending usage as seen from
// route monitors — the paper's Section VI-A measurement (Figs. 5 and 6) —
// by computing the monitors' routing tables and failure-driven update
// streams over a topology whose origins follow realistic prepending
// policies. MeasurePaths gives the AS-path length distribution the paper
// picks λ from ("half of the average AS path length"), read off the same
// routing kernel.
package measure

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/stats"
	"aspp/internal/topology"
)

// SurveyConfig parameterizes RunSurvey.
type SurveyConfig struct {
	// Monitors are the vantage-point ASes whose tables and updates are
	// analyzed (the paper uses the RouteViews/RIPE peer set; we default
	// to top-degree plus random ASes via DefaultMonitors).
	Monitors []bgp.ASN
	// ChurnEvents is the number of primary-link failure/restore cycles
	// generating the update stream.
	ChurnEvents int
	// Seed drives churn sampling.
	Seed int64
	// Counters optionally collects survey telemetry (propagations, churn
	// updates emitted); nil disables recording.
	Counters *obs.Counters
}

// DefaultSurveyConfig returns the standard survey setup.
func DefaultSurveyConfig() SurveyConfig {
	return SurveyConfig{ChurnEvents: 200, Seed: 1}
}

// DefaultMonitors mimics the public route-monitor deployment: every
// tier-1 (all of them feed RouteViews), the nTop highest-degree ASes, and
// nRandom arbitrary edge feeds, deterministically.
func DefaultMonitors(g *topology.Graph, nTop, nRandom int, seed int64) []bgp.ASN {
	monitors := g.Tier1s()
	have := make(map[bgp.ASN]bool, len(monitors)+nTop+nRandom)
	for _, m := range monitors {
		have[m] = true
	}
	for _, m := range g.TopByDegree(nTop) {
		if !have[m] {
			have[m] = true
			monitors = append(monitors, m)
		}
	}
	asns := g.ASNs()
	target := len(monitors) + nRandom
	// Simple deterministic LCG walk over the AS list avoids importing
	// math/rand for three picks.
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	for len(monitors) < target && len(monitors) < len(asns) {
		x = x*6364136223846793005 + 1442695040888963407
		cand := asns[x%uint64(len(asns))]
		if !have[cand] {
			have[cand] = true
			monitors = append(monitors, cand)
		}
	}
	return monitors
}

// MonitorFrac is one vantage point's prepending fraction.
type MonitorFrac struct {
	Monitor bgp.ASN
	Tier    int
	// Frac is the fraction of prefixes (tables) or announcements
	// (updates) whose AS path carries prepending.
	Frac float64
}

// SurveyResult carries everything Figs. 5-6 plot.
type SurveyResult struct {
	// TableFracs: per monitor, fraction of prefixes whose steady-state
	// best path contains prepending (Fig. 5 "all (table)").
	TableFracs []MonitorFrac
	// Tier1TableFracs restricts to tier-1 monitors (Fig. 5 "tier 1").
	Tier1TableFracs []MonitorFrac
	// UpdateFracs: per monitor, fraction of update announcements with
	// prepending (Fig. 5 "all (updates)").
	UpdateFracs []MonitorFrac
	// TablePrependDist / UpdatePrependDist: distribution of the maximum
	// prepend-run length over prepended routes (Fig. 6).
	TablePrependDist  *stats.Histogram
	UpdatePrependDist *stats.Histogram
	// Totals for reporting.
	Prefixes, Origins, Updates int
}

// TableCDF returns the CDF of TableFracs values.
func (r *SurveyResult) TableCDF() (*stats.CDF, error) { return fracCDF(r.TableFracs) }

// Tier1CDF returns the CDF of Tier1TableFracs values.
func (r *SurveyResult) Tier1CDF() (*stats.CDF, error) { return fracCDF(r.Tier1TableFracs) }

// UpdateCDF returns the CDF of UpdateFracs values.
func (r *SurveyResult) UpdateCDF() (*stats.CDF, error) { return fracCDF(r.UpdateFracs) }

func fracCDF(fracs []MonitorFrac) (*stats.CDF, error) {
	vals := make([]float64, 0, len(fracs))
	for _, f := range fracs {
		vals = append(vals, f.Frac)
	}
	return stats.NewCDF(vals)
}

// RunSurvey computes routing tables for every origin's prefixes, derives
// per-monitor prepending fractions, then replays churn events to build the
// update-stream statistics.
func RunSurvey(g *topology.Graph, origins []collector.OriginConfig, cfg SurveyConfig) (*SurveyResult, error) {
	if len(origins) == 0 {
		return nil, errors.New("measure: no origins")
	}
	monitors := cfg.Monitors
	if len(monitors) == 0 {
		monitors = DefaultMonitors(g, 30, 10, cfg.Seed)
	}
	for _, m := range monitors {
		if !g.Has(m) {
			return nil, fmt.Errorf("measure: monitor %v not in topology", m)
		}
	}
	vantage := routing.NewVantage(g, monitors)

	res := &SurveyResult{
		TablePrependDist:  stats.NewHistogram(),
		UpdatePrependDist: stats.NewHistogram(),
		Origins:           len(origins),
	}

	// Steady-state tables: one propagation per origin (all its prefixes
	// share the announcement), read at the monitors only; weight per-prefix
	// afterwards. The per-origin prepend observations land in one flat
	// matrix: prepMat[i*nMon+mi] is the origin-prepend run monitor mi sees
	// for origin i (0 when the monitor has no route or is the origin itself).
	// The prepend run a monitor receives is also the path's maximum run here
	// — only origins prepend in this survey — so the table distribution reads
	// the same cell.
	nMon := len(monitors)
	prepMat := make([]int16, len(origins)*nMon)
	perr := parallel.ForEachScratchErr(context.Background(), len(origins), 0,
		newTableState,
		func(ts *tableState, i int) error {
			// Origins are validated at assignment, so an error indicates a
			// propagation bug; fail the survey instead of panicking the
			// worker pool.
			if err := ts.preps(vantage, origins[i].Announcement, prepMat[i*nMon:(i+1)*nMon], cfg.Counters); err != nil {
				return fmt.Errorf("measure: propagate origin %v: %w", origins[i].AS, err)
			}
			return nil
		})
	if perr != nil {
		return nil, perr
	}

	// Aggregate table stats per monitor.
	total := make([]int, len(monitors))
	prepended := make([]int, len(monitors))
	for i, oc := range origins {
		row := prepMat[i*nMon : (i+1)*nMon]
		for mi := range row {
			if row[mi] == 0 {
				continue
			}
			total[mi] += len(oc.Prefixes)
			if row[mi] >= 2 {
				prepended[mi] += len(oc.Prefixes)
				res.TablePrependDist.AddN(int(row[mi]), len(oc.Prefixes))
			}
		}
	}
	for _, oc := range origins {
		res.Prefixes += len(oc.Prefixes)
	}
	for mi, m := range monitors {
		if total[mi] == 0 {
			continue
		}
		mf := MonitorFrac{
			Monitor: m,
			Tier:    g.Tier(m),
			Frac:    float64(prepended[mi]) / float64(total[mi]),
		}
		res.TableFracs = append(res.TableFracs, mf)
		if mf.Tier == 1 {
			res.Tier1TableFracs = append(res.Tier1TableFracs, mf)
		}
	}

	// Update stream: each churn event fails an origin's primary upstream
	// and restores it; monitors whose best route changes emit updates.
	events := collector.PlanChurn(origins, cfg.ChurnEvents, cfg.Seed)
	byAS := make(map[bgp.ASN]collector.OriginConfig, len(origins))
	originPos := make(map[bgp.ASN]int, len(origins))
	for i, oc := range origins {
		byAS[oc.AS] = oc
		originPos[oc.AS] = i
	}
	type updStats struct {
		total, prepended []int
		dist             *stats.Histogram
		updates          int
	}
	perEvent, perr := parallel.MapScratchErr(context.Background(), len(events), 0,
		newTableState,
		func(ts *tableState, i int) (updStats, error) {
			ev := events[i]
			oc := byAS[ev.Origin]
			weight := len(oc.Prefixes)
			us := updStats{
				total:     make([]int, nMon),
				prepended: make([]int, nMon),
				dist:      stats.NewHistogram(),
			}
			failed := make([]int16, nMon)
			if err := ts.preps(vantage, ev.Failover(oc.Announcement), failed, cfg.Counters); err != nil {
				return us, fmt.Errorf("measure: churn propagate %v: %w", oc.AS, err)
			}
			steady := prepMat[originPos[ev.Origin]*nMon : (originPos[ev.Origin]+1)*nMon]
			for mi, before := range steady {
				after := failed[mi]
				if before == after {
					continue // no visible change at this monitor
				}
				// Failure announcement (or withdraw) plus restore announcement.
				for _, p := range []int16{after, before} {
					if p == 0 {
						continue // withdrawal: no path to classify
					}
					us.updates += weight
					us.total[mi] += weight
					if p >= 2 {
						us.prepended[mi] += weight
						us.dist.AddN(int(p), weight)
					}
				}
			}
			return us, nil
		})
	if perr != nil {
		return nil, perr
	}
	updTotal := make([]int, len(monitors))
	updPrepended := make([]int, len(monitors))
	for _, us := range perEvent {
		res.UpdatePrependDist.Merge(us.dist)
		res.Updates += us.updates
		cfg.Counters.AddChurnUpdates(int64(us.updates))
		for mi := range updTotal {
			updTotal[mi] += us.total[mi]
			updPrepended[mi] += us.prepended[mi]
		}
	}
	for mi, m := range monitors {
		if updTotal[mi] == 0 {
			continue
		}
		res.UpdateFracs = append(res.UpdateFracs, MonitorFrac{
			Monitor: m,
			Tier:    g.Tier(m),
			Frac:    float64(updPrepended[mi]) / float64(updTotal[mi]),
		})
	}
	sortFracs(res.TableFracs)
	sortFracs(res.Tier1TableFracs)
	sortFracs(res.UpdateFracs)
	return res, nil
}

// tableState is one worker's propagation state for both legs of the survey.
type tableState struct {
	s     *routing.Scratch
	spans []routing.PathSpan
}

func newTableState() *tableState { return &tableState{s: routing.NewScratch()} }

// preps propagates ann and writes into row the origin-prepend run each of
// v's monitors receives, 0 where a monitor has no route or is the origin.
func (ts *tableState) preps(v *routing.Vantage, ann routing.Announcement, row []int16, c *obs.Counters) error {
	spans, err := v.PathsInto(ann, ts.s, nil, ts.spans[:0]) // Prep only: no arena
	if err != nil {
		return err
	}
	ts.spans = spans
	c.AddBasePropagations(1)
	c.AddRowsDown(ts.s.RowsDown())
	for mi, sp := range spans {
		row[mi] = int16(sp.Prep) // a propagated run: Result.Prep is an int16
	}
	return nil
}

func sortFracs(f []MonitorFrac) {
	sort.Slice(f, func(a, b int) bool {
		if f[a].Frac != f[b].Frac {
			return f[a].Frac < f[b].Frac
		}
		return f[a].Monitor < f[b].Monitor
	})
}
