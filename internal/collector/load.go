package collector

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"aspp/internal/bgp"
	"aspp/internal/obs"
	"aspp/internal/parallel"
	"aspp/internal/routing"
	"aspp/internal/topology"
)

// Load generation (DESIGN §5g). The churn simulator already models the
// update traffic the paper's detector would consume in deployment: each
// churn event fails a backup-provisioned origin's primary upstream and
// restores it, and every monitor whose best route changes emits an
// update. ChurnStream materializes that traffic as a replayable corpus —
// the input for cmd/asppload and the asppserve self-test, and the ≥5k
// update replay behind the sharded-vs-serial detection differential.
//
// The stream interleaves exactly what a detector wants to see: failover
// transitions announce longer, more-heavily-prepended backup routes
// (λ up: stored, no alarm), restores announce the shorter primary routes
// back (λ down: the detection trigger), and monitors that lose the route
// entirely withdraw. Replaying the corpus cyclically keeps every
// transition firing on each pass, so sustained load exercises the full
// detection path rather than a warmed no-op table.

// churnState is one worker's propagation state. One Scratch serves both
// results of an event: each is read out as monitor spans into the arena
// before the next propagation overwrites the baseline slot.
type churnState struct {
	s     *routing.Scratch
	arena *routing.PathArena
	spans []routing.PathSpan
}

func newChurnState() *churnState {
	return &churnState{s: routing.NewScratch(), arena: routing.NewPathArena()}
}

// ChurnStream builds the update stream for a sequence of churn events:
// per event, the failover transition (steady → primary withheld) followed
// by the restore transition (back to steady), across every prefix the
// origin announces. Events are simulated in parallel but the returned
// stream is in event order with strictly increasing Time stamps, so
// replays are deterministic. The prefixes of one event share their path
// slices. Counters (nil-safe) records the propagation legs, the emitted
// updates and the graph's and the largest Scratch's bytes.
func ChurnStream(g *topology.Graph, origins []OriginConfig, events []ChurnEvent, monitors []bgp.ASN, workers int, counters *obs.Counters) ([]bgp.Update, error) {
	if len(events) == 0 {
		return nil, nil
	}
	byAS := make(map[bgp.ASN]OriginConfig, len(origins))
	for _, oc := range origins {
		byAS[oc.AS] = oc
	}
	sorted := slices.Clone(monitors)
	slices.Sort(sorted)
	vantage := routing.NewVantage(g, sorted)
	counters.Max(obs.CSRBytes, g.MemoryBytes())
	perEvent, err := parallel.MapScratchErr(context.Background(), len(events), workers,
		newChurnState,
		func(st *churnState, i int) ([]bgp.Update, error) {
			ev := events[i]
			oc, ok := byAS[ev.Origin]
			if !ok {
				return nil, fmt.Errorf("collector: churn event %d references unknown origin %v", i, ev.Origin)
			}
			st.arena.Reset()
			spans, err := vantage.PathsInto(oc.Announcement, st.s, st.arena, st.spans[:0])
			if err != nil {
				return nil, fmt.Errorf("collector: steady propagate %v: %w", oc.AS, err)
			}
			counters.Add(obs.RowsDown, st.s.RowsDown())
			spans, err = vantage.PathsInto(ev.Failover(oc.Announcement), st.s, st.arena, spans)
			if err != nil {
				return nil, fmt.Errorf("collector: churn propagate %v: %w", oc.AS, err)
			}
			counters.Add(obs.RowsDown, st.s.RowsDown())
			counters.Add(obs.BasePropagations, 2)
			counters.Max(obs.ScratchBytes, st.s.MemoryBytes())
			st.spans = spans
			// The event's two transitions, once; each prefix repeats them.
			steady, failed := spans[:len(sorted)], spans[len(sorted):]
			cycle := transition(st.arena, sorted, steady, failed, nil)
			cycle = transition(st.arena, sorted, failed, steady, cycle)
			ups := make([]bgp.Update, 0, len(cycle)*len(oc.Prefixes))
			for _, pfx := range oc.Prefixes {
				if !pfx.IsValid() {
					return nil, errors.New("collector: invalid prefix")
				}
				for _, u := range cycle {
					u.Prefix = pfx
					ups = append(ups, u)
				}
			}
			return ups, nil
		})
	if err != nil {
		return nil, err
	}
	var out []bgp.Update
	for _, ups := range perEvent {
		out = append(out, ups...)
	}
	for i := range out {
		out[i].Time = uint64(i + 1)
	}
	counters.Add(obs.ChurnUpdates, int64(len(out)))
	return out, nil
}

// ChurnCorpus is the stream asppserve -selftest and asppload both replay:
// events failure/restore cycles of g's default origins. counters may be nil.
func ChurnCorpus(g *topology.Graph, monitors []bgp.ASN, events int, seed int64, counters *obs.Counters) ([]bgp.Update, error) {
	origins, err := AssignOrigins(g, DefaultPolicyConfig())
	if err != nil {
		return nil, err
	}
	evs := PlanChurn(origins, events, seed+1)
	if len(evs) == 0 {
		return nil, errors.New("no churn events planned (topology too small?)")
	}
	ups, err := ChurnStream(g, origins, evs, monitors, 0, counters)
	if err == nil && len(ups) == 0 {
		err = fmt.Errorf("empty update corpus: none of the %d monitors sees a churn event (monitors outside the topology?)", len(monitors))
	}
	return ups, err
}

// ParseMonitors resolves a -monitors flag for asppserve and asppload alike:
// "topK" (g's K >= 1 best-connected ASes) or a comma-separated ASN list.
func ParseMonitors(spec string, g *topology.Graph) ([]bgp.ASN, error) {
	if k, ok := strings.CutPrefix(spec, "top"); ok {
		if kn, err := strconv.Atoi(k); err == nil && kn >= 1 {
			return g.TopByDegree(kn), nil
		}
		return nil, fmt.Errorf("bad -monitors %q: want topK, K >= 1", spec)
	}
	var mons []bgp.ASN
	for _, f := range strings.Split(spec, ",") {
		asn, err := bgp.ParseASN(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad -monitors %q: %w", spec, err)
		}
		mons = append(mons, asn)
	}
	return mons, nil
}
