package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunRefusesBadScale(t *testing.T) {
	dir := t.TempDir()
	for _, scale := range []string{"-1", "0", "NaN", "+Inf"} {
		out := filepath.Join(dir, "trace.txt")
		if err := run([]string{"-make", "-scale", scale, "-out", out}); err == nil {
			t.Errorf("-scale %s accepted", scale)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-scale %s wrote a trace", scale)
		}
	}
}

func TestRunRefusesNegativeBuffer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte("write long disk 0 block 8 size 4\nend batch\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exercise", path, "-buffer", "0"}); err != nil {
		t.Fatalf("-buffer 0: %v", err)
	}
	if err := run([]string{"-exercise", path, "-buffer", "-5"}); err == nil {
		t.Error("-buffer -5 accepted")
	}
}
