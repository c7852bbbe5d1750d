package probe

import (
	"math/rand"
	"testing"
)

// TestIndexDifferential drives an Index and a map model with random Put,
// lookup and Delete under three hashes: a constant one, homed three slots
// before the end of the table, which makes every id one probe run that
// wraps past the end, a two-valued one whose second home is the table's
// last slot, and a mixed one. Ids are
// taken fresh or put back after a delete. After every operation every live
// id is found under its hash, every deleted id is not, and the count
// matches the model; over the run, deletes hit the head, the middle and
// the tail of a run, and the table doubles while runs are long.
func TestIndexDifferential(t *testing.T) {
	hashes := []struct {
		name string
		hash func(id int32) uint64
	}{
		{"constant", func(int32) uint64 { return ^uint64(0) - 2 }},
		{"two-valued", func(id int32) uint64 { return uint64(id%2) * ^uint64(0) }},
		{"mixed", func(id int32) uint64 { return Words(1, []uint32{uint32(id)}) }},
	}
	for _, hc := range hashes {
		rng := rand.New(rand.NewSource(46))
		var x Index
		live := map[int32]bool{}
		var deleted []int32
		next := int32(0)
		var heads, middles, tails, doublings int
		check := func(op string) {
			t.Helper()
			if x.n != len(live) {
				t.Fatalf("%s, after %s: index holds %d ids, model %d", hc.name, op, x.n, len(live))
			}
			for id := range live {
				if got := x.Find(hc.hash(id), func(c int32) bool { return c == id }); got != id {
					t.Fatalf("%s, after %s: live id %d found as %d", hc.name, op, id, got)
				}
			}
			for _, id := range deleted {
				if got := x.Find(hc.hash(id), func(c int32) bool { return c == id }); got != -1 {
					t.Fatalf("%s, after %s: deleted id %d found as %d", hc.name, op, id, got)
				}
			}
		}
		for step := 0; step < 3000; step++ {
			// Grow to about 40 ids, then churn around that size.
			if len(live) == 0 || rng.Intn(80) >= len(live) {
				id := next
				if len(deleted) > 0 && rng.Intn(2) == 0 {
					k := rng.Intn(len(deleted))
					id = deleted[k]
					deleted = append(deleted[:k], deleted[k+1:]...)
				} else {
					next++
				}
				size := len(x.slots)
				x.Put(hc.hash(id), id, hc.hash)
				live[id] = true
				if size > 0 && len(x.slots) != size {
					doublings++
				}
				check("a put")
				continue
			}
			var id int32
			for id = range live {
				break
			}
			mask := len(x.slots) - 1
			at := 0
			for x.slots[at] != id+1 {
				at++
			}
			switch before, after := x.slots[(at-1)&mask], x.slots[(at+1)&mask]; {
			case before == 0:
				heads++
			case after == 0:
				tails++
			default:
				middles++
			}
			x.Delete(hc.hash(id), id, hc.hash)
			delete(live, id)
			deleted = append(deleted, id)
			check("a delete")
		}
		t.Logf("%s: %d ids live, %d deletes at a run's head, %d in its middle, %d at its tail, %d doublings, %d slots",
			hc.name, len(live), heads, middles, tails, doublings, len(x.slots))
		if heads == 0 || middles == 0 || tails == 0 || doublings < 3 {
			t.Errorf("%s: premise broken: %d head, %d middle, %d tail deletes and %d doublings; want each", hc.name, heads, middles, tails, doublings)
		}
	}
}

// TestIndexClear: a cleared index finds nothing, keeps its table, and takes
// ids again.
func TestIndexClear(t *testing.T) {
	hash := func(id int32) uint64 { return uint64(id) * 7 }
	var x Index
	for id := int32(0); id < 100; id++ {
		x.Put(hash(id), id, hash)
	}
	bytes := x.MemoryBytes()
	x.Clear()
	if x.MemoryBytes() != bytes || x.n != 0 {
		t.Fatalf("Clear: %d B and %d ids, want %d B and none", x.MemoryBytes(), x.n, bytes)
	}
	for id := int32(0); id < 100; id++ {
		if got := x.Find(hash(id), func(int32) bool { return true }); got != -1 {
			t.Fatalf("cleared index found %d probing for %d", got, id)
		}
	}
	x.Put(hash(3), 3, hash)
	if got := x.Find(hash(3), func(c int32) bool { return c == 3 }); got != 3 {
		t.Fatalf("after Clear and Put, id 3 found as %d", got)
	}
}
