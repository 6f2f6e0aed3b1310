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
	m := Manifest{Version: Version, Shards: 4, Backend: "file", Codec: "golomb"}
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
		{"newer version", `{"version": 99, "shards": 2, "backend": "file", "codec": "raw"}`},
		{"zero version", `{"shards": 2, "backend": "file", "codec": "raw"}`},
		{"version 1", `{"version": 1, "shards": 2, "routing": "hash"}`},
		{"version 2", `{"version": 2, "shards": 2, "routing": "hash", "backend": "file", "codec": "raw"}`},
		{"zero shards", `{"version": 3, "shards": 0, "backend": "file", "codec": "raw"}`},
		{"missing backend", `{"version": 3, "shards": 2, "codec": "raw"}`},
		{"missing codec", `{"version": 3, "shards": 2, "backend": "file"}`},
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

func TestSaveRefusesInvalid(t *testing.T) {
	if err := Save(t.TempDir(), Manifest{Version: Version, Shards: 0, Backend: "file", Codec: "raw"}); err == nil {
		t.Error("invalid manifest written")
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, Manifest{Version: Version, Shards: 2, Backend: "file", Codec: "raw"}); err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, Manifest{Version: Version, Shards: 8, Backend: "file", Codec: "raw"}); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 8 {
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
