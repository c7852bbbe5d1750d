package detect

import (
	"reflect"
	"strings"
	"testing"

	"aspp/internal/bgp"
	"aspp/internal/topology"
)

// fuzzRels is a cheap deterministic RelQuerier: it classifies every AS
// pair by arithmetic instead of a topology, so the fuzzer can reach the
// relationship-hint branches of DetectChange without building graphs.
type fuzzRels struct{}

func (fuzzRels) RelOf(a, b bgp.ASN) topology.RelTo {
	return topology.RelTo((uint32(a) ^ uint32(b)*2654435761) % 5)
}

// parseFuzzRoutes decodes the fuzzer's byte soup into monitor routes: one
// route per line, whitespace-separated numbers, first number the monitor
// ASN and the rest the path. Malformed numbers become small ASNs instead
// of being rejected — the detector must cope with garbage, not the parser.
func parseFuzzRoutes(data []byte) []MonitorRoute {
	var out []MonitorRoute
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		nums := make([]bgp.ASN, 0, len(fields))
		for _, f := range fields {
			var n uint32
			for _, c := range f {
				if c < '0' || c > '9' {
					n = n*31 + uint32(c)%97 // fold junk into a number
					continue
				}
				n = n*10 + uint32(c-'0')
			}
			nums = append(nums, bgp.ASN(n))
		}
		r := MonitorRoute{Monitor: nums[0]}
		if len(nums) > 1 {
			r.Path = bgp.Path(nums[1:])
		}
		out = append(out, r)
	}
	return out
}

// FuzzDetect feeds arbitrary monitor route sets to the prepend-consistency
// detector: the first parsed route supplies (monitor, previous path), the
// second the current path, the rest are witnesses. DetectChange must never
// panic, must not mutate its inputs, must be deterministic — the same
// inputs produce identical alarms on a second run, with and without
// relationship hints — and, a shim over the production rule, must raise
// exactly the alarms of the frozen path-slice reference.
//
// Run with: go test -run=^$ -fuzz=FuzzDetect -fuzztime=10s ./internal/detect/
func FuzzDetect(f *testing.F) {
	f.Add([]byte("10 20 30 100 100 100\n10 20 40 100\n11 21 30 100 100 100\n12 22 40 100"))
	f.Add([]byte("7018 4134 9318 32934 32934 32934\n7018 4134 32934\n3356 2914 32934 32934 32934"))
	f.Add([]byte("1 2 3\n1 2 3"))
	f.Add([]byte("5\n5\n5"))
	f.Add([]byte(""))
	f.Add([]byte("10 100 100 100\n10 100\n10 100 100 100")) // witness = monitor itself
	f.Add([]byte("9 8 7 6 6\n9 8 6\n0 0 0\n4294967295 1 1"))
	f.Add([]byte("10 20 30 100 100 100\n10 20 30 100\n11 20 30 100 100 100"))               // witness segment = monitor's
	f.Add([]byte("10 100 100 100\n10 100\n11 100 100 100"))                                 // empty transit chains
	f.Add([]byte("10 20 30 100 100 100\n10 20 30 100\n10 21 30 100 100 100"))               // witness = monitor, other route
	f.Add([]byte("10 20 30 100 100 100\n10 20 40 100\n11 21 40 100 100\n11 21 40 100 100")) // duplicate witnesses
	f.Add([]byte("100 100 100 100\n100 100\n100 100 100\n11 100 100 100"))                  // all-origin paths

	f.Fuzz(func(t *testing.T, data []byte) {
		routes := parseFuzzRoutes(data)
		if len(routes) < 2 {
			// Still must not panic on degenerate input.
			_ = DetectChange(1, nil, nil, routes, nil)
			return
		}
		monitor := routes[0].Monitor
		prev, cur := routes[0].Path, routes[1].Path
		witnesses := routes[2:]

		prevCopy := prev.Clone()
		curCopy := cur.Clone()
		witCopy := make([]MonitorRoute, len(witnesses))
		for i, w := range witnesses {
			witCopy[i] = MonitorRoute{Monitor: w.Monitor, Path: w.Path.Clone()}
		}

		for _, rels := range []RelQuerier{nil, fuzzRels{}} {
			first := DetectChange(monitor, prev, cur, witnesses, rels)
			second := DetectChange(monitor, prev, cur, witnesses, rels)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("alarms not deterministic (rels=%v):\n first: %+v\nsecond: %+v",
					rels != nil, first, second)
			}
			if want := legacyDetectChange(monitor, prev, cur, witnesses, rels); !reflect.DeepEqual(first, want) {
				t.Fatalf("alarms differ from the reference (rels=%v):\n   row: %+v\nlegacy: %+v",
					rels != nil, first, want)
			}
		}

		if !prev.Equal(prevCopy) || !cur.Equal(curCopy) {
			t.Fatal("DetectChange mutated the monitor's paths")
		}
		for i, w := range witnesses {
			if w.Monitor != witCopy[i].Monitor || !w.Path.Equal(witCopy[i].Path) {
				t.Fatalf("DetectChange mutated witness %d", i)
			}
		}
	})
}
