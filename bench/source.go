package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"

	"aspp/internal/bgp"
	"aspp/internal/collector"
	"aspp/internal/detect"
	"aspp/internal/topology"
)

// A source is the update sequence of one serve workload: position n of
// the sequence is always the same update for the same seed. It also
// carries the reference verdicts of a serial detect.Detector over that
// sequence, which is what the pipeline's alarms are checked against.
type source interface {
	// appendFrames appends the encoded frames of positions [from, to).
	appendFrames(dst []byte, from, to int64) []byte
	// expect consumes the next alarm the reference predicts for ev's
	// (prefix, monitor) key and returns the position of the update that
	// raises it. ok is false when the reference predicts no further alarm
	// for the key, or a different one: the alarm is extra. Alarms of one
	// key leave the pipeline in update order (one prefix lives on one
	// shard), so consuming them in feed order is exact.
	expect(ev detect.Alarm, prefix netip.Prefix) (pos int64, ok bool)
	// expectedAlarms is the number of alarms positions [0, n) raise.
	expectedAlarms(n int64) int64
	// reset rewinds the reference to position 0, for a fresh pipeline.
	reset()
	// describe is one line on the corpus, for the output.
	describe() string
}

// serveCorpus is everything a serve workload derives from the seed
// before a pipeline exists.
type serveCorpus struct {
	g        *topology.Graph
	monitors []bgp.ASN
	src      source
	// updates is the churn corpus itself, for the in-process layer runs.
	updates []bgp.Update
}

// churnUpdates builds the churn corpus the daemon's self-test and load
// generator replay: failover and restore transitions of backup-provisioned
// origins, seen from the top-degree monitors. The topology — what a
// daemon is configured with: its monitor set and relationships — is the
// one asppserve defaults to (seed 1); the seed picks the churn events,
// that is, the traffic. (Seeding the topology as well moves the alarms per
// update from 0.55 to 1.76 and the saturation rate by a third, so two
// seeds would no longer measure one workload.) tr may be nil.
func churnUpdates(tr *tracer, parent int, sc scale, seed int64, nMonitors int) (*topology.Graph, []bgp.ASN, []bgp.Update, error) {
	cfg := topology.DefaultGenConfig(sc.serveN)
	id := tr.start("topology.Generate", parent)
	g, err := topology.Generate(cfg)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	id = tr.start("collector.AssignOrigins", parent)
	origins, err := collector.AssignOrigins(g, collector.DefaultPolicyConfig())
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	monitors := g.TopByDegree(nMonitors)
	events := collector.PlanChurn(origins, sc.events, seed+1)
	id = tr.start("collector.ChurnStream", parent)
	updates, err := collector.ChurnStream(g, origins, events, monitors, 0, nil)
	tr.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(updates) == 0 {
		return nil, nil, nil, errors.New("empty churn corpus")
	}
	return g, monitors, updates, nil
}

type alarmKey struct {
	prefix  netip.Prefix
	monitor bgp.ASN
}

// expected is one alarm the reference raises: the corpus index of the
// update that raises it and the alarm itself.
type expected struct {
	idx   int32
	alarm detect.Alarm
}

// keyCursor walks one key's expected alarms: the first cycle starts from
// an empty detector, every later cycle from the state the previous one
// left, so there are two lists.
type keyCursor struct {
	first, steady []expected
	cycle         int64
	next          int
}

// churnSource replays the churn corpus cyclically.
type churnSource struct {
	frames []byte
	off    []int // frame i is frames[off[i]:off[i+1]]
	keys   map[alarmKey]*keyCursor
	// cumFirst[i] / cumSteady[i]: alarms raised by corpus indices < i in
	// the first / any later cycle.
	cumFirst, cumSteady []int64
}

// newChurnSource encodes the corpus and runs the serial reference
// detector over three cycles of it: the first from an empty table, the
// second from the table the first left, the third to confirm that later
// cycles repeat the second exactly (detector state is the latest route
// per key, so they must).
func newChurnSource(updates []bgp.Update, monitors []bgp.ASN, rels detect.RelQuerier) (*churnSource, error) {
	s := &churnSource{
		off:       make([]int, 1, len(updates)+1),
		keys:      make(map[alarmKey]*keyCursor),
		cumFirst:  make([]int64, len(updates)+1),
		cumSteady: make([]int64, len(updates)+1),
	}
	var err error
	for _, u := range updates {
		if s.frames, err = bgp.AppendUpdateBinary(s.frames, u); err != nil {
			return nil, err
		}
		s.off = append(s.off, len(s.frames))
	}
	ref := detect.NewDetector(monitors, rels)
	var inOrder [3][]expected // each cycle's alarms in corpus order
	for cycle := range inOrder {
		for i, u := range updates {
			alarms := ref.Observe(u)
			k := alarmKey{u.Prefix, u.Monitor}
			cur := s.keys[k]
			if cur == nil {
				cur = &keyCursor{}
				s.keys[k] = cur
			}
			for _, a := range alarms {
				e := expected{int32(i), a}
				inOrder[cycle] = append(inOrder[cycle], e)
				switch cycle {
				case 0:
					cur.first = append(cur.first, e)
				case 1:
					cur.steady = append(cur.steady, e)
				}
			}
			switch cycle {
			case 0:
				s.cumFirst[i+1] = s.cumFirst[i] + int64(len(alarms))
			case 1:
				s.cumSteady[i+1] = s.cumSteady[i] + int64(len(alarms))
			}
		}
	}
	if !slices.Equal(inOrder[1], inOrder[2]) {
		return nil, fmt.Errorf("reference detector is not periodic: cycle 2 raises %d alarms, cycle 3 %d, or they differ",
			len(inOrder[1]), len(inOrder[2]))
	}
	return s, nil
}

func (s *churnSource) len() int64 { return int64(len(s.off) - 1) }

func (s *churnSource) appendFrames(dst []byte, from, to int64) []byte {
	n := s.len()
	for from < to {
		i := from % n
		j := min(n, i+(to-from))
		dst = append(dst, s.frames[s.off[i]:s.off[j]]...)
		from += j - i
	}
	return dst
}

func (s *churnSource) expect(a detect.Alarm, prefix netip.Prefix) (int64, bool) {
	cur := s.keys[alarmKey{prefix, a.Monitor}]
	if cur == nil {
		return 0, false
	}
	list := cur.first
	if cur.cycle > 0 {
		list = cur.steady
	}
	for cur.next >= len(list) {
		if len(cur.steady) == 0 {
			return 0, false
		}
		cur.cycle++
		cur.next = 0
		list = cur.steady
	}
	e := list[cur.next]
	cur.next++
	if e.alarm != a {
		return 0, false
	}
	return cur.cycle*s.len() + int64(e.idx), true
}

func (s *churnSource) reset() {
	for _, cur := range s.keys {
		cur.cycle, cur.next = 0, 0
	}
}

func (s *churnSource) expectedAlarms(n int64) int64 {
	l := s.len()
	if n <= l {
		return s.cumFirst[n]
	}
	return s.cumFirst[l] + (n/l-1)*s.cumSteady[l] + s.cumSteady[n%l]
}

func (s *churnSource) describe() string {
	l := s.len()
	return fmt.Sprintf("churn corpus: %d updates over %d (prefix, monitor) keys, %.3f alarms per update once warm, %.1f B/frame",
		l, len(s.keys), float64(s.cumSteady[l])/float64(l), float64(len(s.frames))/float64(l))
}

// Growth: every prefix is new. Prefix q (a /32 at growthBase+q) receives
// growthInserts announcements, one per template monitor, with the routes
// those monitors really held for one corpus prefix; every
// growthAttackEvery-th prefix then receives the corpus update that raised
// an alarm against exactly that state. A block of growthAttackEvery
// prefixes is therefore growthBlock positions, the last of which is the
// attack.
const (
	growthBase        = 0x0B000000 // 11.0.0.0
	growthInserts     = 4
	growthAttackEvery = 64
	growthBlock       = growthAttackEvery*growthInserts + 1
	frameAddrOffset   = 17 // magic 2, type 1, time 8, monitor 4, family 1, bits 1
)

type growthSource struct {
	inserts [growthInserts][]byte // frames with a placeholder address
	attack  []byte
	alarms  []detect.Alarm // what the attack update raises, in order
	// seen counts the alarms already matched per attacked prefix.
	seen map[uint32]int
}

// newGrowthSource picks the template from the churn corpus: the first
// update that raises an alarm once the table is warm, whose prefix at
// least growthInserts monitors hold a route for (the alarming monitor and
// its witness among them).
func newGrowthSource(updates []bgp.Update, monitors []bgp.ASN, rels detect.RelQuerier) (*growthSource, error) {
	ref := detect.NewDetector(monitors, rels)
	for _, u := range updates {
		ref.Observe(u)
	}
	for _, u := range updates {
		// State before u, for every monitor that has a route.
		type held struct {
			mon  bgp.ASN
			path bgp.Path
		}
		var before []held
		if u.Type == bgp.Announce {
			for _, m := range ref.Monitors() {
				if p := ref.RouteOf(u.Prefix, m); p != nil {
					before = append(before, held{m, p})
				}
			}
		}
		alarms := ref.Observe(u)
		if len(alarms) == 0 || len(before) < growthInserts {
			continue
		}
		// Keep the alarming monitor and the witnesses, fill up with others.
		need := map[bgp.ASN]bool{u.Monitor: true}
		for _, a := range alarms {
			need[a.Witness] = true
		}
		if len(need) > growthInserts {
			continue
		}
		var pick []held
		for _, h := range before {
			if need[h.mon] {
				pick = append(pick, h)
			}
		}
		for _, h := range before {
			if len(pick) < growthInserts && !need[h.mon] {
				pick = append(pick, h)
			}
		}
		// The template must reproduce the alarms on a fresh prefix.
		probe := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, 1}), 32)
		check := detect.NewDetector(monitors, rels)
		s := &growthSource{seen: make(map[uint32]int)}
		ok := true
		for i, h := range pick {
			ins := bgp.Update{Time: 1, Monitor: h.mon, Type: bgp.Announce, Prefix: probe, Path: h.path}
			if len(check.Observe(ins)) != 0 {
				ok = false
			}
			var err error
			if s.inserts[i], err = bgp.AppendUpdateBinary(nil, ins); err != nil {
				return nil, err
			}
		}
		atk := bgp.Update{Time: 1, Monitor: u.Monitor, Type: bgp.Announce, Prefix: probe, Path: u.Path}
		s.alarms = append(s.alarms, check.Observe(atk)...)
		if !ok || len(s.alarms) == 0 {
			continue
		}
		var err error
		if s.attack, err = bgp.AppendUpdateBinary(nil, atk); err != nil {
			return nil, err
		}
		return s, nil
	}
	return nil, errors.New("churn corpus has no alarm whose state fits the growth template")
}

func (s *growthSource) appendFrames(dst []byte, from, to int64) []byte {
	for n := from; n < to; n++ {
		block, r := n/growthBlock, n%growthBlock
		q := block*growthAttackEvery + r/growthInserts
		tmpl := s.inserts[r%growthInserts]
		if r == growthBlock-1 {
			q, tmpl = block*growthAttackEvery+growthAttackEvery-1, s.attack
		}
		at := len(dst) + frameAddrOffset
		dst = append(dst, tmpl...)
		binary.BigEndian.PutUint32(dst[at:], growthBase+uint32(q))
	}
	return dst
}

func (s *growthSource) expect(a detect.Alarm, prefix netip.Prefix) (int64, bool) {
	addr := prefix.Addr()
	if !addr.Is4() || prefix.Bits() != 32 {
		return 0, false
	}
	b := addr.As4()
	q := binary.BigEndian.Uint32(b[:]) - growthBase
	if q%growthAttackEvery != growthAttackEvery-1 {
		return 0, false
	}
	k := s.seen[q]
	if k >= len(s.alarms) || s.alarms[k] != a {
		return 0, false
	}
	s.seen[q] = k + 1
	return int64(q/growthAttackEvery)*growthBlock + growthBlock - 1, true
}

func (s *growthSource) reset() { clear(s.seen) }

func (s *growthSource) expectedAlarms(n int64) int64 {
	return n / growthBlock * int64(len(s.alarms))
}

func (s *growthSource) describe() string {
	return fmt.Sprintf("growth: never-repeating /32 prefixes, %d inserts each, 1 in %d then attacked (%d alarm(s)), %d B/insert frame",
		growthInserts, growthAttackEvery, len(s.alarms), len(s.inserts[0]))
}

// growthPositions returns the number of positions that cover n prefixes.
func growthPositions(prefixes int64) int64 {
	return prefixes / growthAttackEvery * growthBlock
}
