package bench

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// The harness touches the filesystem only to stage index directories for
// the engine and to weigh them afterwards; index data itself is read and
// written by the engine alone. Hence the ioboundary suppressions below.

// dirSizes sums the apparent sizes of the files under dir, in total and by
// kind: "vocab" (vocab.txt), "docs" (docs.log), "disk" (disk*.dat), across
// all shards.
func dirSizes(dir string) (total int64, byKind map[string]int64, err error) {
	byKind = make(map[string]int64)
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		switch name := d.Name(); {
		case name == "vocab.txt":
			byKind["vocab"] += info.Size()
		case name == "docs.log":
			byKind["docs"] += info.Size()
		case strings.HasPrefix(name, "disk"):
			byKind["disk"] += info.Size()
		}
		return nil
	})
	return total, byKind, err
}

// copyDir copies the regular files and directories under src to dst, which
// must not exist: how every repetition gets its own fresh copy of the index
// set-up built once.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755) //nolint:ioboundary // staging a repetition's directory
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src) //nolint:ioboundary // staging a repetition's directory
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst) //nolint:ioboundary // staging a repetition's directory
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
