package manifest

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := Manifest{Version: Version, Shards: 4, Routing: "range", Backend: "file", Codec: "golomb"}
	if err := Save(dir, m); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Errorf("round trip: got %+v, want %+v", got, m)
	}
	// The temporary file must not linger.
	if _, err := os.Stat(Path(dir) + ".tmp"); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("temporary manifest left behind: %v", err)
	}
}

func TestLoadMissingIsNotExist(t *testing.T) {
	_, err := Load(t.TempDir())
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing manifest: got %v, want fs.ErrNotExist", err)
	}
}

func TestLoadCorruptJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(Path(dir), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Errorf("corrupt manifest: got %v, want descriptive corruption error", err)
	}
}

func TestLoadRejectsInvalid(t *testing.T) {
	cases := []struct {
		name string
		body string
	}{
		{"newer version", `{"version": 99, "shards": 2, "routing": "hash", "backend": "file", "codec": "raw"}`},
		{"zero version", `{"shards": 2, "routing": "hash", "backend": "file", "codec": "raw"}`},
		{"version 1", `{"version": 1, "shards": 2, "routing": "hash"}`},
		{"zero shards", `{"version": 2, "shards": 0, "routing": "hash", "backend": "file", "codec": "raw"}`},
		{"missing routing", `{"version": 2, "shards": 2, "backend": "file", "codec": "raw"}`},
		{"negative span", `{"version": 2, "shards": 2, "routing": "range", "range_span": -1, "backend": "file", "codec": "raw"}`},
		{"custom span", `{"version": 2, "shards": 2, "routing": "range", "range_span": 64, "backend": "file", "codec": "raw"}`},
		{"missing backend", `{"version": 2, "shards": 2, "routing": "hash", "codec": "raw"}`},
		{"missing codec", `{"version": 2, "shards": 2, "routing": "hash", "backend": "file"}`},
	}
	for _, c := range cases {
		dir := t.TempDir()
		if err := os.WriteFile(Path(dir), []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil {
			t.Errorf("%s: invalid manifest accepted", c.name)
		}
	}
}

// TestLoadAcceptsDefaultSpan: older engines recorded the range router's
// span even at its default, and that is the span this engine routes with.
func TestLoadAcceptsDefaultSpan(t *testing.T) {
	dir := t.TempDir()
	body := `{"version": 2, "shards": 2, "routing": "range", "range_span": 1024, "backend": "file", "codec": "raw"}`
	if err := os.WriteFile(Path(dir), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err != nil {
		t.Errorf("default span refused: %v", err)
	}
}

func TestSaveRefusesInvalid(t *testing.T) {
	if err := Save(t.TempDir(), Manifest{Version: Version, Shards: 0, Routing: "hash", Backend: "file", Codec: "raw"}); err == nil {
		t.Error("invalid manifest written")
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, Manifest{Version: Version, Shards: 2, Routing: "hash", Backend: "file", Codec: "raw"}); err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, Manifest{Version: Version, Shards: 8, Routing: "round-robin", Backend: "file", Codec: "raw"}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 8 || got.Routing != "round-robin" {
		t.Errorf("overwrite: got %+v", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != FileName {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = filepath.Base(e.Name())
		}
		t.Errorf("directory holds %v, want just %s", names, FileName)
	}
}
