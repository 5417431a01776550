package b

import (
	"testing"

	"fixture/internal/a"
)

func TestHelper(t *testing.T) {
	if a.Helper() == "" {
		t.Fatal("empty helper")
	}
}
