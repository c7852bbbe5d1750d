package bgp

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func randomUpdate(rng *rand.Rand, tm uint64) Update {
	u := Update{
		Time:    tm,
		Monitor: ASN(1 + rng.Intn(64000)),
	}
	if rng.Intn(2) == 0 {
		u.Prefix = netip.PrefixFrom(
			netip.AddrFrom4([4]byte{byte(1 + rng.Intn(223)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0}),
			8+rng.Intn(17),
		).Masked()
	} else {
		u.Prefix = netip.PrefixFrom(
			netip.AddrFrom16([16]byte{0x20, 0x01, byte(rng.Intn(256)), byte(rng.Intn(256))}),
			16+rng.Intn(33),
		).Masked()
	}
	if rng.Intn(5) == 0 {
		u.Type = Withdraw
		return u
	}
	u.Type = Announce
	u.Path = randomPath(rng)
	return u
}

func TestUpdateValidate(t *testing.T) {
	pfx := netip.MustParsePrefix("10.0.0.0/8")
	tests := []struct {
		name    string
		give    Update
		wantErr bool
	}{
		{
			name: "valid announce",
			give: Update{Type: Announce, Monitor: 7018, Prefix: pfx, Path: Path{1, 2}},
		},
		{
			name: "valid withdraw",
			give: Update{Type: Withdraw, Monitor: 7018, Prefix: pfx},
		},
		{
			name:    "zero monitor",
			give:    Update{Type: Announce, Prefix: pfx, Path: Path{1}},
			wantErr: true,
		},
		{
			name:    "empty announce path",
			give:    Update{Type: Announce, Monitor: 1, Prefix: pfx},
			wantErr: true,
		},
		{
			name:    "withdraw with path",
			give:    Update{Type: Withdraw, Monitor: 1, Prefix: pfx, Path: Path{1}},
			wantErr: true,
		},
		{
			name:    "invalid prefix",
			give:    Update{Type: Announce, Monitor: 1, Path: Path{1}},
			wantErr: true,
		},
		{
			name:    "bad type",
			give:    Update{Type: 9, Monitor: 1, Prefix: pfx},
			wantErr: true,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.give.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTextRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func() bool {
		u := randomUpdate(rng, uint64(rng.Intn(1<<30)))
		got, err := ParseUpdateText(u.String())
		if err != nil {
			t.Logf("parse %q: %v", u.String(), err)
			return false
		}
		return got.Time == u.Time && got.Monitor == u.Monitor &&
			got.Type == u.Type && got.Prefix == u.Prefix && got.Path.Equal(u.Path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestReadUpdatesTextSkipsComments(t *testing.T) {
	in := `# RouteViews-style export
A|5|AS7018|69.171.224.0/20|4134 9318 32934 32934 32934

W|6|AS7018|69.171.255.0/24
`
	got, err := ReadUpdatesText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadUpdatesText: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d updates, want 2", len(got))
	}
	if got[0].Type != Announce || got[1].Type != Withdraw {
		t.Errorf("types = %v,%v", got[0].Type, got[1].Type)
	}
	if got[0].Path.OriginPrepend() != 3 {
		t.Errorf("origin prepend = %d, want 3", got[0].Path.OriginPrepend())
	}
}

func TestParseUpdateTextErrors(t *testing.T) {
	bad := []string{
		"",
		"X|1|AS1|10.0.0.0/8|1 2",
		"A|z|AS1|10.0.0.0/8|1 2",
		"A|1|ASx|10.0.0.0/8|1 2",
		"A|1|AS1|nonsense|1 2",
		"A|1|AS1|10.0.0.0/8",       // announce missing path
		"W|1|AS1|10.0.0.0/8|1 2",   // withdraw with path
		"A|1|AS1|10.0.0.0/8|1 2|3", // extra field
	}
	for _, line := range bad {
		if _, err := ParseUpdateText(line); err == nil {
			t.Errorf("ParseUpdateText(%q) succeeded, want error", line)
		}
	}
}

// TestParseUpdateTextMasksHostBits: the text codec keys an update by the
// prefix the binary codec decodes, so a stream shards and stores alike
// whichever codec carried it.
func TestParseUpdateTextMasksHostBits(t *testing.T) {
	for line, want := range map[string]string{
		"A|1|AS5|10.0.0.1/8|5 1":     "10.0.0.0/8",
		"W|2|AS5|192.168.77.9/20":    "192.168.64.0/20",
		"A|3|AS5|2001:db8::1/32|5 1": "2001:db8::/32",
	} {
		u, err := ParseUpdateText(line)
		if err != nil {
			t.Fatalf("ParseUpdateText(%q): %v", line, err)
		}
		if u.Prefix.String() != want {
			t.Errorf("ParseUpdateText(%q).Prefix = %v, want %s", line, u.Prefix, want)
		}
		frame, err := AppendUpdateBinary(nil, u)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := decodeFrame(frame)
		if err != nil {
			t.Fatal(err)
		}
		assertUpdateEqual(t, "text→binary", u, dec)
	}
}

func TestTextParserRobustToCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		u := randomUpdate(rng, uint64(trial))
		line := []byte(u.String())
		pos := rng.Intn(len(line))
		line[pos] ^= byte(1 + rng.Intn(127))
		got, err := ParseUpdateText(string(line))
		if err == nil {
			if verr := got.Validate(); verr != nil {
				t.Fatalf("trial %d: corrupt line parsed to invalid update: %v", trial, verr)
			}
		}
	}
}
