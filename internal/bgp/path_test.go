package bgp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustPath(t *testing.T, s string) Path {
	t.Helper()
	p, err := ParsePath(s)
	if err != nil {
		t.Fatalf("ParsePath(%q): %v", s, err)
	}
	return p
}

func TestParseASN(t *testing.T) {
	tests := []struct {
		give    string
		want    ASN
		wantErr bool
	}{
		{give: "7018", want: 7018},
		{give: "AS7018", want: 7018},
		{give: " AS32934 ", want: 32934},
		{give: "0", wantErr: true},
		{give: "", wantErr: true},
		{give: "hello", wantErr: true},
		{give: "-3", wantErr: true},
		{give: "4294967296", wantErr: true}, // > uint32
		{give: "4294967295", want: 4294967295},
	}
	for _, tt := range tests {
		t.Run(tt.give, func(t *testing.T) {
			got, err := ParseASN(tt.give)
			if tt.wantErr {
				if err == nil {
					t.Fatalf("ParseASN(%q) = %v, want error", tt.give, got)
				}
				return
			}
			if err != nil {
				t.Fatalf("ParseASN(%q): %v", tt.give, err)
			}
			if got != tt.want {
				t.Errorf("ParseASN(%q) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestASNString(t *testing.T) {
	if got := ASN(7018).String(); got != "AS7018" {
		t.Errorf("ASN(7018).String() = %q, want AS7018", got)
	}
}

func TestPathBasics(t *testing.T) {
	p := mustPath(t, "7018 3356 32934 32934 32934")
	if got := len(p); got != 5 {
		t.Errorf("len = %d, want 5", got)
	}
	if got := p.UniqueLen(); got != 3 {
		t.Errorf("UniqueLen = %d, want 3", got)
	}
	if o, ok := p.Origin(); !ok || o != 32934 {
		t.Errorf("Origin = %v,%v, want 32934,true", o, ok)
	}
	if !p.Contains(3356) || p.Contains(1239) {
		t.Error("Contains gave wrong answers")
	}
	if got := p.OriginPrepend(); got != 3 {
		t.Errorf("OriginPrepend = %d, want 3", got)
	}
}

func TestPathEmpty(t *testing.T) {
	var p Path
	if _, ok := p.Origin(); ok {
		t.Error("Origin on empty path reported ok")
	}
	if p.OriginPrepend() != 0 || p.UniqueLen() != 0 {
		t.Error("empty path metrics nonzero")
	}
	if got := p.Unique(); got != nil {
		t.Errorf("Unique(empty) = %v, want nil", got)
	}
	if got := p.String(); got != "" {
		t.Errorf("String(empty) = %q, want empty", got)
	}
}

func TestPathUnique(t *testing.T) {
	p := mustPath(t, "4134 9318 32934 32934 32934")
	want := mustPath(t, "4134 9318 32934")
	if got := p.Unique(); !got.Equal(want) {
		t.Errorf("Unique = %v, want %v", got, want)
	}
}

func TestStripOriginPrepend(t *testing.T) {
	tests := []struct {
		name string
		give string
		keep int
		want string
	}{
		{name: "strip to one", give: "9318 32934 32934 32934", keep: 1, want: "9318 32934"},
		{name: "strip to two", give: "9318 32934 32934 32934 32934 32934", keep: 2, want: "9318 32934 32934"},
		{name: "already short", give: "9318 32934", keep: 1, want: "9318 32934"},
		{name: "keep clamped", give: "9318 32934 32934", keep: 0, want: "9318 32934"},
		{name: "origin only", give: "32934 32934 32934", keep: 1, want: "32934"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			give := mustPath(t, tt.give)
			got := give.StripOriginPrepend(tt.keep)
			if want := mustPath(t, tt.want); !got.Equal(want) {
				t.Errorf("StripOriginPrepend(%q, %d) = %v, want %v", tt.give, tt.keep, got, want)
			}
			// The input must be untouched.
			if !give.Equal(mustPath(t, tt.give)) {
				t.Error("StripOriginPrepend mutated its receiver")
			}
		})
	}
}

func TestPrepend(t *testing.T) {
	p := mustPath(t, "32934")
	got := p.Prepend(9318, 1).Prepend(4134, 2)
	want := mustPath(t, "4134 4134 9318 32934")
	if !got.Equal(want) {
		t.Errorf("Prepend chain = %v, want %v", got, want)
	}
	if got := p.Prepend(7018, 0); !got.Equal(mustPath(t, "7018 32934")) {
		t.Errorf("Prepend n=0 = %v, want single prepend", got)
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, give := range []string{"", "  ", "1 x 3", "1 0 3"} {
		if _, err := ParsePath(give); err == nil {
			t.Errorf("ParsePath(%q) succeeded, want error", give)
		}
	}
}

// randomPath builds a plausible AS path with random prepending.
func randomPath(rng *rand.Rand) Path {
	hops := 1 + rng.Intn(7)
	var p Path
	for i := 0; i < hops; i++ {
		asn := ASN(1 + rng.Intn(60000))
		rep := 1
		if rng.Intn(3) == 0 {
			rep += rng.Intn(5)
		}
		for j := 0; j < rep; j++ {
			p = append(p, asn)
		}
	}
	return p
}

func TestPathStringRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		p := randomPath(rng)
		got, err := ParsePath(p.String())
		return err == nil && got.Equal(p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStripInvariantsQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func() bool {
		p := randomPath(rng)
		keep := rng.Intn(4)
		s := p.StripOriginPrepend(keep)
		wantKeep := keep
		if wantKeep < 1 {
			wantKeep = 1
		}
		// Origin unchanged, prepend count min(orig, keep), unique form unchanged.
		o1, _ := p.Origin()
		o2, _ := s.Origin()
		if o1 != o2 {
			return false
		}
		wantRun := p.OriginPrepend()
		if wantRun > wantKeep {
			wantRun = wantKeep
		}
		if s.OriginPrepend() != wantRun {
			return false
		}
		return s.Unique().Equal(p.Unique())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestUniqueIdempotentQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func() bool {
		p := randomPath(rng)
		u := p.Unique()
		return u.Unique().Equal(u) && u.UniqueLen() == len(u)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCommonSuffixLen(t *testing.T) {
	tests := []struct {
		a, b string
		want int
	}{
		{a: "1 2 3", b: "9 2 3", want: 2},
		{a: "1 2 3", b: "1 2 3", want: 3},
		{a: "1 2 3", b: "4 5 6", want: 0},
		{a: "3", b: "1 2 3", want: 1},
	}
	for _, tt := range tests {
		a, b := mustPath(t, tt.a), mustPath(t, tt.b)
		if got := a.CommonSuffixLen(b); got != tt.want {
			t.Errorf("CommonSuffixLen(%q,%q) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
		if got := b.CommonSuffixLen(a); got != tt.want {
			t.Errorf("CommonSuffixLen symmetric mismatch for %q,%q", tt.a, tt.b)
		}
	}
	var empty Path
	if got := empty.CommonSuffixLen(mustPath(t, "1")); got != 0 {
		t.Errorf("empty suffix = %d", got)
	}
}
