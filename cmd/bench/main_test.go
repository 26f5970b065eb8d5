package main

import (
	"strings"
	"testing"
)

func TestParseExpList(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		want    []string // names that must be selected
		wantErr string   // substring the error must contain ("" = no error)
	}{
		{"all", "all", []string{"all"}, ""},
		{"single", "e11", []string{"e11"}, ""},
		{"subset", "e1,e8,e9", []string{"e1", "e8", "e9"}, ""},
		{"case and spaces", " E2 , e11 ", []string{"e2", "e11"}, ""},
		{"trailing comma", "e3,", []string{"e3"}, ""},
		{"unknown name", "e99", nil, `unknown experiment "e99"`},
		{"typo lists valid names", "e1,ee2", nil, "valid: e1, e2, e3, e4, e5, e6, e7, e8, e9, e11, e12, e13, all"},
		{"empty", "", nil, "empty experiment selection"},
		{"only commas", ",,", nil, "empty experiment selection"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseExpList(tc.in)
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("parseExpList(%q) = %v, want error containing %q", tc.in, got, tc.wantErr)
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %q does not contain %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseExpList(%q): %v", tc.in, err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("selected %v, want %v", got, tc.want)
			}
			for _, name := range tc.want {
				if !got[name] {
					t.Fatalf("selected %v, missing %q", got, name)
				}
			}
		})
	}
}

// TestKnownExpsAllDispatch pins that every name parseExpList accepts has a
// dispatch branch: -exp <name> must never fall through to the "unknown
// experiment selection" error that guards run()'s end.
func TestKnownExpsAllDispatch(t *testing.T) {
	// A fast smoke run of the cheapest experiment keeps this a unit test;
	// the full matrix runs in CI via cmd/bench itself.
	if err := run([]string{"-exp", "e7"}); err != nil {
		t.Fatalf("run -exp e7: %v", err)
	}
}
