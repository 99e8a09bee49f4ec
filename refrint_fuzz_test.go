package refrint

import (
	"strings"
	"testing"
)

// FuzzParsePolicy asserts two properties over arbitrary labels: the parser
// never panics, and any label it accepts round-trips — parsing the policy's
// canonical String() yields the same policy (and marshalling text inverts
// unmarshalling).
func FuzzParsePolicy(f *testing.F) {
	seeds := []string{
		"SRAM", "sram", " SRAM ",
		"P.all", "P.valid", "P.dirty",
		"R.all", "R.valid", "R.dirty",
		"P.WB(4,4)", "R.WB(32,32)", "r.wb(1,0)", "R.WB( 8 , 2 )",
		"", "P.", "R.", "Q.all", "R.WB", "R.WB(", "R.WB(1)", "R.WB(1,2,3)",
		"R.WB(-1,2)", "R.WB(a,b)", "R.WB(999999999999999999999,1)", "R.WB(2147483648,1)",
		"P.ALL", "R.Valid", "P.wb(0,0)", "SRAM.all", "R..valid",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, label string) {
		p, err := ParsePolicy(label)
		if err != nil {
			return // rejected input: only the no-panic property applies
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePolicy(%q) accepted invalid policy %+v: %v", label, p, err)
		}

		canonical := p.String()
		p2, err := ParsePolicy(canonical)
		if err != nil {
			t.Fatalf("ParsePolicy(%q) = %+v, but re-parsing its label %q failed: %v", label, p, canonical, err)
		}
		if p2 != p {
			t.Fatalf("round trip: ParsePolicy(%q) = %+v, ParsePolicy(%q) = %+v", label, p, canonical, p2)
		}

		// Text marshalling must agree with the label round trip.
		text, err := p.MarshalText()
		if err != nil {
			t.Fatalf("MarshalText of parsed policy %+v: %v", p, err)
		}
		if string(text) != canonical {
			t.Fatalf("MarshalText = %q, String = %q", text, canonical)
		}
		var p3 Policy
		if err := p3.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if p3 != p {
			t.Fatalf("UnmarshalText(%q) = %+v, want %+v", text, p3, p)
		}

		// Accepted labels must resemble what the parser documents, catching
		// accidental acceptance of garbage.
		trimmed := strings.TrimSpace(label)
		switch {
		case strings.EqualFold(trimmed, "SRAM"):
		case len(trimmed) >= 2 && (trimmed[1] == '.') &&
			(trimmed[0] == 'P' || trimmed[0] == 'p' || trimmed[0] == 'R' || trimmed[0] == 'r'):
		default:
			t.Fatalf("ParsePolicy accepted unexpected label %q as %+v", label, p)
		}
	})
}
