package dualindex

import (
	"fmt"
	"time"

	"dualindex/internal/lexer"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
	"dualindex/internal/query"
)

// DocID identifies a document. Identifiers are assigned in arrival order,
// which is what keeps long lists append-only.
type DocID = postings.DocID

// Policy selects the long-list allocation policy — the paper's trade-off
// dial between update speed and query speed.
type Policy struct {
	// Style is "new", "fill" or "whole".
	Style string
	// InPlace enables in-place updates into reserved space (the paper's
	// Limit = z).
	InPlace bool
	// Alloc is "constant", "block" or "proportional"; K is its constant.
	// Ignored unless InPlace is set (and for the fill style).
	Alloc string
	K     float64
	// ExtentBlocks is the fill style's extent size e.
	ExtentBlocks int64
}

// The paper's bottom-line policies (§5.4).
var (
	// PolicyFastUpdate is the update-optimized extreme: sequential writes,
	// never a read, poor query locality.
	PolicyFastUpdate = Policy{Style: "new"}
	// PolicyBalanced is the paper's recommendation when update time matters
	// but queries must stay reasonable: new style, in-place, proportional
	// k = 2.0.
	PolicyBalanced = Policy{Style: "new", InPlace: true, Alloc: "proportional", K: 2.0}
	// PolicyFastQuery is the query-optimized extreme: every list stays one
	// contiguous chunk (whole style, proportional k = 1.2).
	PolicyFastQuery = Policy{Style: "whole", InPlace: true, Alloc: "proportional", K: 1.2}
	// PolicyExtents bounds the largest contiguous disk region (fill style,
	// 2-block extents), convenient for disk arrays.
	PolicyExtents = Policy{Style: "fill", InPlace: true, ExtentBlocks: 2}
)

func (p Policy) internal() (longlist.Policy, error) {
	var out longlist.Policy
	switch p.Style {
	case "new", "":
		out.Style = longlist.StyleNew
	case "fill":
		out.Style = longlist.StyleFill
	case "whole":
		out.Style = longlist.StyleWhole
	default:
		return out, fmt.Errorf("dualindex: unknown style %q", p.Style)
	}
	if p.InPlace {
		out.Limit = longlist.LimitZ
	}
	switch p.Alloc {
	case "constant", "":
		out.Alloc = longlist.AllocConstant
	case "block":
		out.Alloc = longlist.AllocBlock
	case "proportional":
		out.Alloc = longlist.AllocProportional
	default:
		return out, fmt.Errorf("dualindex: unknown allocation strategy %q", p.Alloc)
	}
	out.K = p.K
	out.ExtentBlocks = p.ExtentBlocks
	out = out.Normalize()
	return out, out.Validate()
}

// Block-store backends (Options.Backend).
const (
	// BackendSim is the simulated backend: each shard's disk array lives in
	// memory, and the recorded I/O traces are byte-identical to the paper's
	// serial model. The only backend an in-memory (Dir == "") engine can use.
	BackendSim = "sim"
	// BackendFile is the real-I/O backend: each simulated disk is one file
	// with its own writer goroutine; writes are whole aligned blocks,
	// durability is batched into one fsync per disk at checkpoint
	// boundaries, and reads are preads. Requires Dir.
	BackendFile = "file"
)

// ScoringVector names the paper's vector-space model, the one ranking Query
// and SearchVector use: a document scores the sum of idf = ln(1 + N/df)
// over the query terms it holds (tf·idf with tf = 1, since the index
// records word sets).
const ScoringVector = query.ScoringVector

// Long-list block codecs (Options.Codec).
const (
	// CodecRaw stores fixed 8-byte postings — the paper's layout, and the
	// only codec whose simulated traces are byte-identical to the original
	// engine.
	CodecRaw = "raw"
	// CodecVarint delta-encodes document gaps as varints, each followed by
	// a frequency varint of 1, restarting the delta chain at every block
	// boundary.
	CodecVarint = "varint"
	// CodecGolomb Golomb-codes document gaps, each followed by a one-bit
	// frequency of 1, restarting at block boundaries; densest for long
	// lists.
	CodecGolomb = "golomb"
)

// Options configure an engine. The zero value gives an in-memory,
// single-shard engine with the paper's balanced policy and a moderate
// geometry.
type Options struct {
	// Dir persists the index under this directory. A single-shard engine
	// keeps the pre-sharding flat layout (one file per simulated disk plus a
	// vocabulary file directly under Dir); with Shards > 1 each shard owns a
	// Dir/shard-<i>/ subdirectory with that same layout inside. Empty means
	// in-memory.
	Dir string
	// Shards partitions the engine into that many independent index shards.
	// Documents are placed by range: DocIDs 1..1024 on shard 0, the next
	// 1024 on shard 1, and so on, wrapping over the shards, so a flush
	// batch of new documents updates each long list on one shard. Queries
	// fan out to every shard and merge; ranked scores use each shard's own
	// document frequencies, so they depend on placement. Each shard owns a
	// full disk array, bucket space and vocabulary of the sizes configured
	// below, and its own flush lock, so shards update and answer in
	// parallel. One shard preserves the unsharded engine's behaviour — and
	// its simulated I/O traces — exactly. 0 means "unspecified": one shard
	// for a new index, and for an existing persistent index whatever its
	// manifest records. A non-zero count that disagrees with an existing
	// index's manifest is refused; Engine.Reshard is how the shard count of
	// a live index changes.
	Shards int
	// Policy defaults to PolicyBalanced.
	Policy *Policy
	// Buckets and BucketSize size the short-list structure (per shard); zero
	// values get defaults sized for a few hundred thousand postings.
	Buckets    int
	BucketSize int
	// NumDisks, BlocksPerDisk and BlockSize describe the disk array (per
	// shard); zero values get defaults (4 disks × 256 MB of 4 KiB blocks).
	NumDisks      int
	BlocksPerDisk int64
	BlockSize     int
	// Backend selects the block-store backend: BackendSim (in-memory,
	// byte-identical simulated traces) or BackendFile (one file and writer
	// goroutine per disk, batched fsync at checkpoints). "" means
	// "unspecified": BackendSim for an in-memory engine, BackendFile for a
	// persistent one — exactly the pre-backend behaviour. BackendFile
	// requires Dir, and BackendSim excludes it; the resolved backend is
	// recorded in the index manifest.
	Backend string
	// Codec selects the long-list block codec: CodecRaw (the default, the
	// paper's fixed 8-byte postings, byte-identical simulated traces),
	// CodecVarint or CodecGolomb (compressed blocks — fewer blocks moved
	// per flush and query, at some CPU cost). The codec shapes every
	// on-disk chunk image, so it is fixed at index creation and recorded in
	// the manifest; "" adopts whatever an existing index records, and a
	// non-empty value that disagrees is refused.
	Codec string
	// Lexer tokenization options (zero value = the paper's rules).
	Lexer lexer.Options
	// KeepDocuments stores the original document text (in memory, or in a
	// docs.log per shard directory for persistent engines), enabling
	// Document retrieval and positional queries: SearchPhrase, and phrases,
	// near/k and title:/body: in Query and SearchBoolean.
	KeepDocuments bool
	// LiveSearch has no effect. It once cached each unflushed document's
	// positional tokens in memory; positional verification now streams the
	// stored text of every candidate, pending or flushed, as cheaply as the
	// cache served it, so the cache was removed. Every query kind sees a
	// document the moment AddDocument returns. The field remains so that
	// existing callers that set it still compile; it is not recorded in the
	// manifest.
	LiveSearch bool
	// Workers bounds the engine's concurrent sections: a multi-term
	// query's list fetches per shard, its candidate verification per shard
	// (chunks of 16 candidates, so a query with few stays on one
	// goroutine), how many shards FlushBatch applies and Open loads at
	// once, and within a shard, Open's concurrent reads of the checkpoint,
	// the vocabulary and the document log. A query reaches every shard at
	// once regardless. Answers, traces and counts are the same at every
	// value. 0 defaults to NumDisks (one in-flight read per disk); 1 runs
	// each section on the calling goroutine.
	Workers int
	// CacheBlocks, when positive, layers an LRU block cache of that many
	// blocks (per shard) over the store, so repeated reads of hot chunks —
	// the first block of a long list's last chunk during in-place updates,
	// the lists of popular query words — are served from memory. Hit/miss/
	// eviction counters appear in Stats. 0 disables caching.
	CacheBlocks int

	// Metrics enables the engine's metrics registry: per-shard flush-phase
	// and query-phase latency histograms, flush and query counters, cache
	// and per-disk I/O gauges — everything Engine.Metrics exposes and
	// internal/obshttp serves as Prometheus text. Disabled, the
	// instrumentation costs one nil check per site and allocates nothing;
	// the simulated I/O traces are identical either way.
	Metrics bool
	// SlowQuery, when positive, logs every query slower than this
	// threshold to an in-memory ring of the last 128 (Engine.SlowQueries)
	// and counts it in the slow_queries_total metric. 0 disables the
	// slow-query log.
	SlowQuery time.Duration
	// TraceBuffer, when positive, records structured span events — one per
	// flush phase, query phase and slow query — into a ring of that many
	// events, readable through Engine.Tracer. 0 disables span tracing.
	TraceBuffer int
}

func (o Options) withDefaults() Options {
	// Shards, Backend and Codec are NOT defaulted here: their zero values
	// mean "adopt the manifest" for an existing persistent index, and Open
	// resolves them (via layoutDefaults) only once it knows the index is
	// new. See Open.
	if o.Policy == nil {
		p := PolicyBalanced
		o.Policy = &p
	}
	if o.Buckets == 0 {
		o.Buckets = 256
	}
	if o.BucketSize == 0 {
		o.BucketSize = 4096
	}
	if o.NumDisks == 0 {
		o.NumDisks = 4
	}
	if o.BlocksPerDisk == 0 {
		o.BlocksPerDisk = 65536
	}
	if o.BlockSize == 0 {
		o.BlockSize = 4096
	}
	if o.Workers == 0 {
		o.Workers = o.NumDisks
	}
	return o
}

// validateStorage rejects nonsense backend/codec combinations up front, with
// the codec left possibly empty ("adopt the manifest") for Open to resolve.
func (o Options) validateStorage() error {
	switch o.Backend {
	case "", BackendSim, BackendFile:
	default:
		return fmt.Errorf("dualindex: unknown backend %q (want %q or %q)", o.Backend, BackendSim, BackendFile)
	}
	switch o.Codec {
	case "", CodecRaw, CodecVarint, CodecGolomb:
	default:
		return fmt.Errorf("dualindex: unknown codec %q (want %q, %q or %q)", o.Codec, CodecRaw, CodecVarint, CodecGolomb)
	}
	if o.Backend == BackendFile && o.Dir == "" {
		return fmt.Errorf("dualindex: backend %q needs Options.Dir", BackendFile)
	}
	if o.Backend == BackendSim && o.Dir != "" {
		return fmt.Errorf("dualindex: backend %q cannot persist to a directory; drop Options.Dir or use backend %q", BackendSim, BackendFile)
	}
	if o.Codec != "" && o.Codec != CodecRaw && o.BlockSize < postings.MinCodecBlockSize {
		return fmt.Errorf("dualindex: codec %q needs BlockSize >= %d, got %d", o.Codec, postings.MinCodecBlockSize, o.BlockSize)
	}
	return nil
}

// layoutDefaults resolves the "unspecified" zero values of the options an
// index records in its manifest, for a new index: one shard, the backend
// following Dir (simulated in memory, file-backed on disk) and the raw
// codec — the paper's exact layout. Open applies it to in-memory engines
// and to fresh persistent directories; existing directories resolve from
// their manifest instead.
func (o Options) layoutDefaults() Options {
	if o.Shards == 0 {
		o.Shards = 1
	}
	if o.Backend == "" {
		if o.Dir == "" {
			o.Backend = BackendSim
		} else {
			o.Backend = BackendFile
		}
	}
	if o.Codec == "" {
		o.Codec = CodecRaw
	}
	return o
}
