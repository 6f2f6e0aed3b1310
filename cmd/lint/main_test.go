package main

import (
	"strings"
	"testing"
)

// TestModuleIsClean runs every analyzer over the whole module, as make lint
// does, so a contract violation or a new dead export fails the tests too.
func TestModuleIsClean(t *testing.T) {
	var out strings.Builder
	findings, err := lint(&out, "dualindex/...")
	if err != nil {
		t.Fatal(err)
	}
	if findings > 0 {
		t.Errorf("%d finding(s):\n%s", findings, out.String())
	}
}
