package dualindex

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"dualindex/internal/disk"
	"dualindex/internal/manifest"
	"dualindex/internal/parallel"
	"dualindex/internal/vocab"
)

// Open creates an engine, resuming from Dir's last checkpoint when one
// exists. Documents whose text is not kept and that were added since the
// last FlushBatch are not part of a checkpoint; re-add them after a crash
// (with Options.KeepDocuments they are recovered from the document log).
//
// Resuming reads each shard's checkpoint, not its data: the superblock, the
// bucket region, the directory and the deleted list it points to, the
// vocabulary, the document log's record offsets, and the text of only the
// documents newer than the checkpoint. Long lists are not read. The
// superblock records the largest document identifier ever indexed, so
// identifiers continue past documents a sweep has removed, and how many
// words of vocab.txt, an append-only log, its lists use: a shorter log is
// refused.
//
// On-disk layout: a single-shard engine stores its files (disk*.dat,
// vocab.txt, docs.log) directly under Dir. A sharded engine gives each
// shard its own Dir/shard-<i>/ subdirectory with that same layout inside,
// and Open recovers up to Options.Workers shards at once, each loading its
// checkpoint, vocabulary and document log concurrently. A MANIFEST.json at
// the directory root records the shard count, the backend, the codec and a
// format version.
//
// Open reads only the formats this engine writes: manifest version 3 and
// superblock version 5. It refuses, with an error naming the directory and
// writing nothing, an older manifest or superblock and a directory that
// holds index files but no manifest — one from before manifests existed, or
// one whose first Open never returned. Such an index has to be rebuilt.
// Version 2 manifests belong to engines that could place documents by hash
// or round-robin, and nothing in one says where its documents live under
// range placement.
//
// The shard count is part of the index's identity — with range placement
// it decides where every document lives — so Open refuses an existing
// index whose manifest disagrees with a non-zero Options.Shards. Leave it
// zero to adopt whatever the manifest records (the usual way to reopen),
// and use Engine.Reshard to change the shard count of a live index.
func Open(opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if opts.Shards < 0 {
		return nil, fmt.Errorf("dualindex: negative shard count %d", opts.Shards)
	}
	if err := opts.validateStorage(); err != nil {
		return nil, err
	}
	writeManifest := false
	if opts.Dir == "" {
		opts = opts.layoutDefaults()
	} else {
		m, fresh, err := resolveLayout(opts.Dir, opts)
		if err != nil {
			return nil, err
		}
		opts.Shards, opts.Backend, opts.Codec = m.Shards, m.Backend, m.Codec
		writeManifest = fresh
	}
	shards, err := openShards(opts, opts.Dir, opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("dualindex: %w", err)
	}
	e := &Engine{opts: opts, obs: newObserver(opts), shards: shards}
	for i, s := range shards {
		s.obs = e.obs.shardObs(i)
		e.nextDoc = max(e.nextDoc, s.lastDoc)
	}
	if writeManifest {
		// Stamped only after every shard opened, so a failed create leaves
		// no manifest claiming shards that were never built.
		if err := manifest.Save(opts.Dir, manifestFor(opts)); err != nil {
			e.Close()
			return nil, fmt.Errorf("dualindex: writing index manifest: %w", err)
		}
	}
	e.registerShardFuncs()
	return e, nil
}

// openShards opens the n shards of the layout rooted at dir, at most
// opts.Workers at a time. If any fails, it closes every shard that did open
// and reports the lowest-numbered failure, naming that shard.
func openShards(opts Options, dir string, n int) ([]*shard, error) {
	shards := make([]*shard, n)
	errs := parallel.Do(n, opts.Workers, func(i int) (err error) {
		shards[i], err = openShard(opts, shardDir(dir, i, n))
		return err
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		for _, s := range shards {
			if s != nil {
				s.close()
			}
		}
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	return shards, nil
}

// manifestFor renders an Options set (with its layout already resolved) as
// the manifest to persist.
func manifestFor(opts Options) manifest.Manifest {
	return manifest.Manifest{
		Version: manifest.Version,
		Shards:  opts.Shards,
		Backend: opts.Backend,
		Codec:   opts.Codec,
	}
}

// resolveLayout determines dir's shard count, backend and codec,
// reconciling the on-disk manifest with the requested options. It first
// settles any interrupted reshard: a committed staging directory (the
// rename happened) is rolled forward, an uncommitted one is discarded.
// Then:
//
//   - A manifest is loaded and checked against the options: a non-zero
//     Options.Shards, Backend or Codec that disagrees with the recorded
//     value is refused with a descriptive error, and every shard directory
//     the manifest promises must exist.
//   - A manifest-less directory holding index files (disk0.dat, flat or in
//     shard-0/) is refused: it predates manifests, or its first Open never
//     returned, and either way nothing here can say how it was built.
//   - An empty or absent directory is a fresh index: the options decide,
//     and fresh=true tells Open to stamp the manifest once the shards are
//     built.
func resolveLayout(dir string, opts Options) (m manifest.Manifest, fresh bool, err error) {
	if err := finishReshardCommit(dir); err != nil {
		return m, false, fmt.Errorf("dualindex: completing interrupted reshard: %w", err)
	}
	if err := os.RemoveAll(filepath.Join(dir, reshardStagingName)); err != nil {
		return m, false, fmt.Errorf("dualindex: discarding reshard staging: %w", err)
	}
	m, err = manifest.Load(dir)
	switch {
	case err == nil:
		if err := reconcileManifest(dir, m, opts); err != nil {
			return m, false, err
		}
		if err := verifyShardDirs(dir, m.Shards); err != nil {
			return m, false, err
		}
		return m, false, nil
	case errors.Is(err, fs.ErrNotExist):
		// No manifest: a fresh directory, or one refused below.
	default:
		return m, false, fmt.Errorf("dualindex: %w", err)
	}
	for _, sd := range []string{dir, shardDir(dir, 0, 2)} {
		if shardResumes(sd) {
			return m, false, fmt.Errorf(
				"dualindex: %s holds index files (%s) but no %s: it was built before index manifests existed, or its first Open never returned; this engine cannot tell how it was built, so delete the directory and rebuild the index",
				dir, filepath.Join(sd, "disk0.dat"), manifest.FileName)
		}
	}
	return manifestFor(opts.layoutDefaults()), true, nil
}

// reconcileManifest refuses options that contradict what the manifest
// records. Zero-valued options mean "adopt the manifest".
func reconcileManifest(dir string, m manifest.Manifest, opts Options) error {
	if opts.Shards != 0 && opts.Shards != m.Shards {
		return fmt.Errorf(
			"dualindex: %s holds a %d-shard index, not %d shards (set Shards to %d or 0 to adopt; use Engine.Reshard to change it)",
			dir, m.Shards, opts.Shards, m.Shards)
	}
	if opts.Backend != "" && opts.Backend != m.Backend {
		return fmt.Errorf(
			"dualindex: %s was built on the %q backend, not %q",
			dir, m.Backend, opts.Backend)
	}
	if opts.Codec != "" && opts.Codec != m.Codec {
		return fmt.Errorf(
			"dualindex: %s is %s-encoded, not %s-encoded (the codec shapes every on-disk chunk and is fixed when the index is created)",
			dir, m.Codec, opts.Codec)
	}
	return nil
}

// verifyShardDirs checks that every shard the manifest promises is actually
// on disk, so a partially deleted index fails with a description instead of
// silently reopening the missing shard as empty — which would lose every
// document placed on it.
func verifyShardDirs(dir string, shards int) error {
	for i := 0; i < shards; i++ {
		sd := shardDir(dir, i, shards)
		if _, err := os.Stat(filepath.Join(sd, "disk0.dat")); err != nil {
			return fmt.Errorf(
				"dualindex: %s is a %d-shard index per its manifest, but shard %d's files are missing (%s); the index is partial — restore the directory or delete it and rebuild",
				dir, shards, i, filepath.Join(sd, "disk0.dat"))
		}
	}
	return nil
}

// shardResumes probes whether dir already holds a shard's disk files, i.e.
// whether opening it resumes an existing shard rather than creating one.
func shardResumes(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "disk0.dat"))
	return err == nil
}

// Reshard staging directories, both inside Dir. A reshard builds the new
// layout under .resharding/ and renames it to .reshard-commit/ as its
// atomic commit point: a leftover .resharding/ is an abandoned attempt and
// is discarded on open, while a .reshard-commit/ is a committed reshard
// whose file moves were interrupted and is rolled forward on open.
const (
	reshardStagingName = ".resharding"
	reshardCommitName  = ".reshard-commit"
)

// finishReshardCommit rolls a committed reshard forward: every entry of the
// staged layout is moved into place (replacing its predecessor), stale
// entries of the old layout are removed, and the staged manifest lands
// last, after which the commit directory is deleted. Every step is
// idempotent — entries already moved by an interrupted earlier attempt are
// simply no longer in the commit directory — so the function may be re-run
// after a crash at any point. A no-op when no commit directory exists.
func finishReshardCommit(dir string) error {
	cdir := filepath.Join(dir, reshardCommitName)
	if _, err := os.Stat(cdir); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return err
	}
	m, err := manifest.Load(cdir)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		// The manifest already moved — the last step before deleting the
		// commit directory — so every data entry moved before it. Only the
		// directory deletion remains.
		return os.RemoveAll(cdir)
	}
	// Remove old-layout entries the new layout will not overwrite. These
	// names are never part of the new layout, so re-removing after a crash
	// is harmless.
	if m.Shards > 1 {
		flat, err := filepath.Glob(filepath.Join(dir, "disk*.dat"))
		if err != nil {
			return err
		}
		stale := append(flat, filepath.Join(dir, "vocab.txt"), filepath.Join(dir, "docs.log"))
		for _, p := range stale {
			if err := os.RemoveAll(p); err != nil {
				return err
			}
		}
	}
	shardDirs, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return err
	}
	for _, p := range shardDirs {
		idx, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(p), "shard-"))
		if err != nil {
			continue // not one of ours
		}
		if m.Shards == 1 || idx >= m.Shards {
			if err := os.RemoveAll(p); err != nil {
				return err
			}
		}
	}
	// Move the staged entries into place, the manifest last: its arrival is
	// what switches readers to the new layout.
	entries, err := os.ReadDir(cdir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if ent.Name() == manifest.FileName {
			continue
		}
		target := filepath.Join(dir, ent.Name())
		if err := os.RemoveAll(target); err != nil {
			return err
		}
		if err := os.Rename(filepath.Join(cdir, ent.Name()), target); err != nil {
			return err
		}
	}
	if err := os.Rename(manifest.Path(cdir), manifest.Path(dir)); err != nil {
		return err
	}
	return os.RemoveAll(cdir)
}

// shardDir returns shard i's directory: Dir itself for a single-shard
// engine (the flat layout), Dir/shard-<i> otherwise. Empty for
// in-memory engines.
func shardDir(dir string, i, shards int) string {
	if dir == "" {
		return ""
	}
	if shards == 1 {
		return dir
	}
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

func openAsyncStore(dir string, opts Options, resume bool) (disk.BlockStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if !resume {
		return disk.NewAsyncFileStore(dir, opts.NumDisks, opts.BlockSize)
	}
	// Reopen existing files without truncation.
	return disk.OpenAsyncFileStore(dir, opts.NumDisks, opts.BlockSize)
}

func (s *shard) vocabPath() string { return filepath.Join(s.dir, "vocab.txt") }

// appendVocab appends the words assigned since the last append to the
// shard's vocabulary log and syncs it, so that the log holds every word
// before the checkpoint that counts it. It first cuts the file to the words
// it is known to hold, dropping any tail an uncommitted flush or a failed
// append left. In-memory shards have no log. The caller holds s.mu.
func (s *shard) appendVocab() error {
	if s.dir == "" || s.vocab.Len() == s.logWords {
		return nil
	}
	f, err := os.OpenFile(s.vocabPath(), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	defer f.Close() // for the error paths; a second Close is harmless
	words := s.vocab.AppendLog(nil, s.logWords)
	if err := f.Truncate(s.logSize); err != nil {
		return err
	}
	if _, err := f.WriteAt(words, s.logSize); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.logWords, s.logSize = s.vocab.Len(), s.logSize+int64(len(words))
	return nil
}

// cutVocab keeps the first words of a resumed shard's vocabulary that its
// checkpoint counts. The log may hold more, assigned by a flush that never
// committed: they are dropped here and assigned again as the documents that
// hold them are recovered, and the next append cuts them from the file. A
// log shorter than the count cannot name every word the checkpoint's lists
// hold, and is refused.
func (s *shard) cutVocab() error {
	n := s.index.Words()
	if s.vocab.Len() < n {
		return fmt.Errorf("%s holds %d words, but the checkpoint counts %d: the index cannot name its words; delete it and rebuild", s.vocabPath(), s.vocab.Len(), n)
	}
	s.logWords, s.logSize = n, s.vocab.Cut(n)
	return nil
}

// loadVocab reads the vocabulary log at path; a shard that never appended
// to it has none, and starts with an empty vocabulary.
func loadVocab(path string) (*vocab.Vocab, error) {
	log, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return vocab.New(), nil
	}
	if err != nil {
		return nil, err
	}
	return vocab.Parse(log)
}
