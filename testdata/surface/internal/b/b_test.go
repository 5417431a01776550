package b

import (
	"testing"

	"fixture/internal/a"
	"fixture/internal/testkit"
)

func TestHelper(t *testing.T) {
	if a.Helper() == "" || testkit.Fixture() == "" {
		t.Fatal("empty helper")
	}
}
