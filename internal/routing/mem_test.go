package routing

import (
	"testing"
	"unsafe"
)

// TestMemoryBytesNilAndZero: nil receivers report zero; zero values
// report only their fixed struct size (no backing yet).
func TestMemoryBytesNilAndZero(t *testing.T) {
	var (
		nilR *Result
		nilS *Scratch
		nilA *PathArena
	)
	if nilR.MemoryBytes() != 0 || nilS.MemoryBytes() != 0 || nilA.MemoryBytes() != 0 {
		t.Fatal("nil receivers must report 0 bytes")
	}
	if got, want := NewScratch().MemoryBytes(), int64(unsafe.Sizeof(Scratch{})); got != want {
		t.Fatalf("zero Scratch = %d bytes, want struct size %d", got, want)
	}
}

// TestResultMemoryBytes pins the baseline accounting: a propagated
// baseline's footprint is its struct header plus exactly its columns, 11
// bytes per AS and no Via — in a standalone Result and in a Scratch's
// baseline slot alike, shifted or not.
func TestResultMemoryBytes(t *testing.T) {
	g := testGraph(t)
	n := g.NumASes()
	ann := Announcement{Origin: 100, Prepend: 1}
	base := mustPropagate(t, g, ann)
	if base.Via != nil {
		t.Fatal("baseline unexpectedly carries a Via column")
	}
	want := int64(unsafe.Sizeof(Result{})) + int64(n)*11
	if got := base.MemoryBytes(); got != want {
		t.Fatalf("Propagate's MemoryBytes=%d, want header plus columns %d", got, want)
	}
	slot, err := PropagateScratch(g, ann, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	slot.Shift(4)
	if got := slot.MemoryBytes(); got != want {
		t.Fatalf("shifted baseline slot's MemoryBytes=%d, want %d", got, want)
	}
}

// TestScratchMemoryBytesGrowth: propagating sizes the tables, and the
// reported footprint covers at least the dominant per-AS record table.
func TestScratchMemoryBytesGrowth(t *testing.T) {
	g := testGraph(t)
	s := NewScratch()
	empty := s.MemoryBytes()
	if _, err := PropagateScratch(g, Announcement{Origin: 100, Prepend: 1}, s); err != nil {
		t.Fatalf("PropagateScratch: %v", err)
	}
	grown := s.MemoryBytes()
	if grown <= empty {
		t.Fatalf("MemoryBytes did not grow after propagation: %d -> %d", empty, grown)
	}
	if min := int64(g.NumASes()) * int64(unsafe.Sizeof(nodeRec{})); grown < min {
		t.Fatalf("MemoryBytes=%d below record-table floor %d", grown, min)
	}
	// Accounting must be read-only: a second call reports the same value.
	if again := s.MemoryBytes(); again != grown {
		t.Fatalf("MemoryBytes not stable: %d then %d", grown, again)
	}
}

func TestPathArenaMemoryBytes(t *testing.T) {
	g := testGraph(t)
	res := mustPropagate(t, g, Announcement{Origin: 100, Prepend: 2})
	a := NewPathArena()
	empty := a.MemoryBytes()
	monitors := make([]int32, g.NumASes())
	for i := range monitors {
		monitors[i] = int32(i)
	}
	res.PathsInto(a, monitors, make([]PathSpan, 0, len(monitors)))
	filled := a.MemoryBytes()
	if filled <= empty {
		t.Fatalf("arena footprint did not grow: %d -> %d", empty, filled)
	}
}
