// Package manifest persists an index directory's identity: the layout
// facts that must never drift between the process that built an index and
// the process that reopens it. The manifest replaces layout
// probing ("does shard-0/disk0.dat exist?") with a single versioned record,
// MANIFEST.json at the directory root, written atomically so a crash can
// never leave a half-written manifest in place.
//
// The manifest records the format version, the shard count, the storage
// backend and the postings codec. Documents are placed on shards by range,
// so the shard count decides where every document's postings live and an
// index may only be opened with the recorded count; changing it is what
// Engine.Reshard is for, and it rewrites the manifest as the last step of
// its commit. Only the current format version is read: a manifest from an
// older engine is refused, and the index has to be rebuilt.
package manifest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// FileName is the manifest's name within an index directory.
const FileName = "MANIFEST.json"

// Version is the manifest format version, the only one Load accepts. A
// smaller version was written by an older engine (version 1 lacked the
// backend and codec fields; version 2 named a document router, which may
// have placed documents by hash or round-robin); a larger one by a newer
// engine. Neither is modified by this one.
const Version = 3

// Manifest is the persisted identity of one index directory.
type Manifest struct {
	// Version is the manifest format version (see Version).
	Version int `json:"version"`
	// Shards is the number of index shards. 1 means the flat single-shard
	// layout (index files directly under the directory); more means one
	// shard-<i> subdirectory per shard.
	Shards int `json:"shards"`
	// Backend names the block-store backend the index was built on: "file"
	// (real files with per-disk writer goroutines) — the only backend a
	// persistent directory can use.
	Backend string `json:"backend,omitempty"`
	// Codec names the long-list block codec: "raw", "varint" or "golomb".
	// The codec shapes every on-disk chunk image, so an index may only be
	// opened with the codec it was built with.
	Codec string `json:"codec,omitempty"`
}

// Path returns the manifest's path inside dir.
func Path(dir string) string { return filepath.Join(dir, FileName) }

// Load reads dir's manifest. A missing manifest returns an error satisfying
// errors.Is(err, fs.ErrNotExist) — the caller decides whether that means a
// fresh directory. A present but unreadable
// or structurally invalid manifest is a hard, descriptive error: guessing
// the layout of a corrupt index risks placing documents on the wrong shard.
func Load(dir string) (Manifest, error) {
	var m Manifest
	data, err := os.ReadFile(Path(dir))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("manifest: %s is corrupt: %w", Path(dir), err)
	}
	if err := m.Validate(); err != nil {
		return m, fmt.Errorf("manifest: %s: %w", Path(dir), err)
	}
	return m, nil
}

// Validate checks the manifest's structural invariants.
func (m Manifest) Validate() error {
	if m.Version < 1 {
		return fmt.Errorf("missing or invalid version %d", m.Version)
	}
	if m.Version < Version {
		return fmt.Errorf("format version %d predates this engine's %d, which no longer reads it; rebuild the index from its documents", m.Version, Version)
	}
	if m.Version > Version {
		return fmt.Errorf("format version %d is newer than this engine's %d", m.Version, Version)
	}
	if m.Shards < 1 {
		return fmt.Errorf("invalid shard count %d", m.Shards)
	}
	switch m.Backend {
	case "file", "sim":
	case "":
		return fmt.Errorf("missing backend")
	default:
		return fmt.Errorf("unknown backend %q", m.Backend)
	}
	switch m.Codec {
	case "raw", "varint", "golomb":
	case "":
		return fmt.Errorf("missing codec")
	default:
		return fmt.Errorf("unknown codec %q", m.Codec)
	}
	return nil
}

// Save writes m as dir's manifest, atomically: the bytes land in a sibling
// temporary file which is fsynced and renamed into place, so every reader
// sees either the old manifest or the new one, never a prefix.
func Save(dir string, m Manifest) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("manifest: refusing to write: %w", err)
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := Path(dir) + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, Path(dir))
}
