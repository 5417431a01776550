package asr

import (
	"reflect"
	"testing"
)

// TestParseOperatorSpellings: the extension and decomposition names that
// index specs, gomshell and the manifest share parse back to what
// printed them, and anything else is an error.
func TestParseOperatorSpellings(t *testing.T) {
	for _, e := range Extensions {
		got, err := ParseExtension(e.String())
		if err != nil || got != e {
			t.Errorf("ParseExtension(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := ParseExtension("Extension(7)"); err == nil {
		t.Error("ParseExtension accepted an out-of-range extension's String")
	}
	for name, want := range map[string]Decomposition{"binary": {0, 1, 2, 3}, "none": {0, 3}} {
		got, err := ParseDecomposition(name, 3)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseDecomposition(%q, 3) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseDecomposition("ternary", 3); err == nil {
		t.Error("ParseDecomposition accepted an unknown name")
	}
}
