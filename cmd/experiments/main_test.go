package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dualindex/internal/experiments"
)

// TestArtifactsGolden regenerates every table and figure at the committed
// scale and requires each to equal artifacts/<name>.txt byte for byte. The
// simulated pipeline is deterministic, so the committed files are the
// paper's numbers as this code produces them: any change to the allocation
// policies, the bucket algorithm, the disk model or the corpus generator
// that moves a number shows up here as a line diff.
func TestArtifactsGolden(t *testing.T) {
	env, err := experiments.NewEnv(experiments.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range artifacts() {
		file := a.name + ".txt"
		t.Run(a.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("..", "..", "artifacts", file))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := a.run(&got, env); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("artifacts/%s differs from what the code generates:\n%s"+
					"if the change is intended, regenerate with: go run ./cmd/experiments -run all -out artifacts",
					file, lineDiff(file, string(want), got.String()))
			}
		})
	}
}

// lineDiff renders the lines at which got departs from want, position by
// position (the artifacts are fixed-shape tables: a changed number changes a
// line in place), capped so a wholesale change stays readable.
func lineDiff(file, want, got string) string {
	const maxShown = 10
	wantLines := strings.SplitAfter(want, "\n")
	gotLines := strings.SplitAfter(got, "\n")
	var b strings.Builder
	differing := 0
	for i := 0; i < len(wantLines) || i < len(gotLines); i++ {
		var w, g string
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if w == g {
			continue
		}
		if differing++; differing > maxShown {
			continue
		}
		fmt.Fprintf(&b, "%s:%d\n  - %q\n  + %q\n", file, i+1, w, g)
	}
	if differing > maxShown {
		fmt.Fprintf(&b, "... and %d more differing lines\n", differing-maxShown)
	}
	return b.String()
}

func TestRunRefusesBadScale(t *testing.T) {
	for _, scale := range []string{"-1", "0", "NaN", "+Inf"} {
		out := filepath.Join(t.TempDir(), "out")
		if err := run([]string{"-run", "table1", "-scale", scale, "-out", out}); err == nil {
			t.Errorf("-scale %s accepted", scale)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("-scale %s wrote artifacts", scale)
		}
	}
}
