package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Handler exposes the pipeline over HTTP:
//
//	/metrics — plain-text "name value" lines: pipeline stats (throughput,
//	           latency quantiles, queue depth/peak, the detectors' prefix,
//	           row and route counts) plus the obs.Counters
//	           a serving daemon can move (ingest frames, arena gauge).
//	/alarms  — JSON feed of recent alarm events (?n= caps the count,
//	           default 100, newest last).
//	/healthz — liveness probe.
func (p *Pipeline) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/alarms", p.handleAlarms)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return mux
}

func (p *Pipeline) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s := p.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	line := func(name string, v int64) { fmt.Fprintf(w, "aspp_%s %d\n", name, v) }
	line("serve_shards", int64(s.Shards))
	line("serve_ring_depth", int64(s.Depth))
	line("serve_enqueued_total", s.Enqueued)
	line("serve_processed_total", s.Processed)
	line("serve_dropped_total", s.Dropped)
	line("serve_batches_total", s.Batches)
	line("serve_alarms_total", s.Alarms)
	line("serve_queue_depth", s.QueueDepth)
	line("serve_queue_peak", s.QueuePeak)
	line("serve_latency_p50_ns", s.P50Ns)
	line("serve_latency_p99_ns", s.P99Ns)
	line("serve_memory_bytes", s.MemoryBytes)
	line("detect_prefixes", s.Prefixes)
	line("detect_rows", s.Rows)
	line("detect_routes", s.Routes)
	line("serve_uptime_seconds", int64(s.Uptime/time.Second))
	if sec := s.Uptime.Seconds(); sec > 0 {
		fmt.Fprintf(w, "aspp_serve_rate_updates_per_sec %.1f\n", float64(s.Processed)/sec)
	}
	cs := p.cfg.Counters.Snapshot()
	line("frames_in_total", cs.FramesIn)
	line("frames_bad_total", cs.FramesBad)
	line("arena_bytes", cs.ArenaBytes)
}

// alarmJSON is the wire form of an AlarmEvent.
type alarmJSON struct {
	Seq         int64  `json:"seq"`
	Time        string `json:"time"`
	Prefix      string `json:"prefix"`
	Confidence  string `json:"confidence"`
	Suspect     uint32 `json:"suspect"`
	Monitor     uint32 `json:"monitor"`
	Witness     uint32 `json:"witness"`
	RemovedPads int    `json:"removed_pads"`
	LatencyNs   int64  `json:"latency_ns"`
}

func (p *Pipeline) handleAlarms(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			return
		}
		n = v
	}
	events := p.Alarms(n)
	out := make([]alarmJSON, len(events))
	for i, ev := range events {
		out[i] = alarmJSON{
			Seq:         ev.Seq,
			Time:        ev.Time.UTC().Format(time.RFC3339Nano),
			Prefix:      ev.Prefix.String(),
			Confidence:  ev.Alarm.Confidence.String(),
			Suspect:     uint32(ev.Alarm.Suspect),
			Monitor:     uint32(ev.Alarm.Monitor),
			Witness:     uint32(ev.Alarm.Witness),
			RemovedPads: ev.Alarm.RemovedPads,
			LatencyNs:   ev.LatencyNs,
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
