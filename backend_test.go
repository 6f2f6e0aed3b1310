package dualindex

import (
	"strings"
	"testing"

	"dualindex/internal/manifest"
)

// codecOpts is smallOpts pinned to the file backend and one codec.
func codecOpts(dir, codec string) Options {
	opts := smallOpts(0)
	opts.Dir = dir
	opts.Codec = codec
	return opts
}

// queryWords are probe words spanning the synthetic corpus's frequency
// range: low ids are frequent (long lists), high ids rare (bucket lists).
var queryWords = []string{
	synthWord(0), synthWord(1), synthWord(2), synthWord(5),
	synthWord(10), synthWord(17), synthWord(24),
}

// TestBackendFileCodecRoundTrip is the acceptance gate for the file backend:
// for every codec, an index built on real files must survive close and
// reopen — adopting the manifest — with every query answer intact.
func TestBackendFileCodecRoundTrip(t *testing.T) {
	for _, codec := range []string{CodecRaw, CodecVarint, CodecGolomb} {
		t.Run(codec, func(t *testing.T) {
			dir := t.TempDir()
			eng, err := Open(codecOpts(dir, codec))
			if err != nil {
				t.Fatal(err)
			}
			texts := synthTexts(311, 120, 25, 15)
			for i, text := range texts {
				eng.AddDocument(text)
				if (i+1)%40 == 0 {
					if _, err := eng.FlushBatch(); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := make(map[string][]DocID)
			for _, w := range queryWords {
				docs, err := eng.SearchBoolean(w)
				if err != nil {
					t.Fatal(err)
				}
				want[w] = docs
			}
			if err := eng.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			m, err := manifest.Load(dir)
			if err != nil {
				t.Fatal(err)
			}
			if m.Backend != BackendFile || m.Codec != codec {
				t.Fatalf("manifest records backend %q codec %q, want %q %q",
					m.Backend, m.Codec, BackendFile, codec)
			}

			// Reopen with storage left unspecified: the manifest decides.
			reopened := smallOpts(0)
			reopened.Dir = dir
			eng, err = Open(reopened)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			for _, w := range queryWords {
				docs, err := eng.SearchBoolean(w)
				if err != nil {
					t.Fatal(err)
				}
				if len(docs) != len(want[w]) {
					t.Fatalf("word %q: %d docs after reopen, want %d", w, len(docs), len(want[w]))
				}
				for i := range docs {
					if docs[i] != want[w][i] {
						t.Fatalf("word %q: doc %d differs after reopen", w, i)
					}
				}
			}
			if err := eng.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			// And the reopened index keeps updating.
			for _, text := range synthTexts(312, 30, 25, 15) {
				eng.AddDocument(text)
			}
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
			if err := eng.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBackendFileCodecMismatchRefused pins the mixed-codec refusal: an index
// is its codec, and asking for another one must fail with a descriptive
// error, not decode garbage.
func TestBackendFileCodecMismatchRefused(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(codecOpts(dir, CodecVarint))
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range synthTexts(21, 40, 25, 15) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for _, wrong := range []string{CodecRaw, CodecGolomb} {
		if _, err := Open(codecOpts(dir, wrong)); err == nil {
			t.Errorf("Open accepted codec %q for a varint index", wrong)
		} else if !strings.Contains(err.Error(), "varint") {
			t.Errorf("mismatch error %q should name the recorded codec", err)
		}
	}
}

// TestBackendCodecOptionValidation pins the up-front nonsense rejections.
func TestBackendCodecOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"file backend without Dir", Options{Backend: BackendFile}},
		{"sim backend with Dir", Options{Backend: BackendSim, Dir: "somewhere"}},
		{"unknown backend", Options{Backend: "tape"}},
		{"unknown codec", Options{Codec: "lz4"}},
		{"codec below min block size", Options{Codec: CodecVarint, BlockSize: 32}},
	}
	for _, tc := range cases {
		if _, err := Open(tc.opts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSimBackendCodec pins that compressing codecs work on the simulated
// backend too (the store is in memory, but it is still a real store).
func TestSimBackendCodec(t *testing.T) {
	opts := smallOpts(0)
	opts.Backend = BackendSim
	opts.Codec = CodecGolomb
	opts.Metrics = true
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, text := range synthTexts(99, 80, 25, 15) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.CodecEncodedBytes == 0 || st.CodecRawBytes == 0 {
		t.Fatalf("codec byte counters empty: %+v", st)
	}
	if st.CompressionRatio <= 1 {
		t.Fatalf("compression ratio %.2f, want > 1", st.CompressionRatio)
	}
	var buf strings.Builder
	eng.Metrics().WritePrometheus(&buf)
	for _, want := range []string{"codec_raw_bytes_total", "codec_encoded_bytes_total", "codec_compression_ratio", "disk_read_blocks_total", "disk_write_blocks_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics output missing %s", want)
		}
	}
}

// codecBlocks builds one backend × codec cell's index — 400 documents in
// four flushed batches, so long lists grow by in-place tail updates and chunk
// growth rather than one bulk load — and reads the deterministic counters:
// blocks written by the build, blocks read by one pass of a mixed query
// workload, and the achieved compression ratio.
func codecBlocks(t *testing.T, backend, codec string) (flushWritten, queryRead int64, ratio float64) {
	t.Helper()
	opts := Options{
		Backend:       backend,
		Codec:         codec,
		Buckets:       64,
		BucketSize:    128, // small buckets: the corpus spills into long lists
		NumDisks:      4,
		BlocksPerDisk: 65536,
		BlockSize:     512,
	}
	if backend == BackendFile {
		opts.Dir = t.TempDir()
	}
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for j, text := range synthTexts(97, 400, 120, 40) {
		eng.AddDocument(text)
		if (j+1)%100 == 0 {
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	built := eng.Stats()
	for _, q := range []string{
		"waa and wab",
		"wac or (wad and not wae)",
		"wa* and not waa",
		"(waf or wag) and (wah or wai)",
	} {
		if _, err := eng.SearchBoolean(q); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.SearchVector("waa wab wac wad wae waf wag wah wai waj wak wal wam wan wao wap", 10); err != nil {
		t.Fatal(err)
	}
	queried := eng.Stats()
	return built.WriteBlocks, queried.ReadBlocks - built.ReadBlocks, queried.CompressionRatio
}

// TestCompressedCodecsMoveFewerBlocks pins the codec layer's reason to
// exist: on each backend, a compressed index writes fewer blocks flushing
// and reads fewer blocks querying than the raw one, and actually compresses.
func TestCompressedCodecsMoveFewerBlocks(t *testing.T) {
	for _, backend := range []string{BackendSim, BackendFile} {
		rawWritten, rawRead, _ := codecBlocks(t, backend, CodecRaw)
		for _, codec := range []string{CodecVarint, CodecGolomb} {
			cell := backend + "/" + codec
			written, read, ratio := codecBlocks(t, backend, codec)
			if written >= rawWritten {
				t.Errorf("%s wrote %d blocks flushing, raw wrote %d", cell, written, rawWritten)
			}
			if read >= rawRead {
				t.Errorf("%s read %d blocks querying, raw read %d", cell, read, rawRead)
			}
			if ratio <= 1 {
				t.Errorf("%s compression ratio %.2f, want > 1", cell, ratio)
			}
		}
	}
}
