// Package contracts is the one table of the engine's concurrency and
// boundary contracts — the normative, machine-readable statement of what
// DESIGN.md's "Concurrency contracts" section says in prose. The analyzers
// under internal/analysis read these tables; nothing else defines a lock
// rank, a snapshot rule or an I/O allowlist, so the hierarchy can only be
// changed in one place (and the change reviews as a contract change, not a
// code change).
//
// Matching is by defining-package name, type name and field name rather
// than full import path, so the golden-test fixtures under each analyzer's
// testdata/ can mirror the real types (package dualindex, types Engine and
// shard) without being part of the module.
package contracts

// A Mutex names one lock in the engine's documented hierarchy and its rank.
// Locks must be acquired in strictly increasing rank order; acquiring a
// lower-ranked lock while holding a higher-ranked one inverts the hierarchy
// and is a deadlock waiting for the right interleaving.
type Mutex struct {
	Pkg   string // defining package name (not import path)
	Type  string // owning struct
	Field string // mutex field
	Rank  int    // position in the hierarchy; acquire in increasing order
}

// LockHierarchy is the engine's documented lock order, outermost first:
// reshardMu → stateMu → engine mu → per-shard flushMu → per-shard mu →
// cache lock → per-disk free-list and accounting locks → store locks (the
// block stores' and the document log's).
var LockHierarchy = []Mutex{
	{Pkg: "dualindex", Type: "Engine", Field: "reshardMu", Rank: 10},
	{Pkg: "dualindex", Type: "Engine", Field: "stateMu", Rank: 20},
	{Pkg: "dualindex", Type: "Engine", Field: "mu", Rank: 30},
	{Pkg: "dualindex", Type: "shard", Field: "flushMu", Rank: 40},
	{Pkg: "dualindex", Type: "shard", Field: "mu", Rank: 50},
	{Pkg: "cache", Type: "Store", Field: "mu", Rank: 60},
	{Pkg: "disk", Type: "Array", Field: "freeMu", Rank: 70},
	{Pkg: "disk", Type: "Array", Field: "mu", Rank: 75},
	{Pkg: "disk", Type: "MemStore", Field: "mu", Rank: 80},
	{Pkg: "disk", Type: "asyncDisk", Field: "mu", Rank: 80},
	{Pkg: "docstore", Type: "File", Field: "mu", Rank: 80},
}

// A TierPair pairs one mutable read-tier field with the published fields
// that make a mid-flush read of it complete and safe. The on-disk tier's
// pair is the classic snapshot rule (core.Index mutates with no shard lock
// held while a flush applies its batch, so reads must go through the
// published snapshot); the pending tier's pair is a completeness rule
// (the flush detaches the pending tier into its snap twin at publish time,
// so a query reading only the fresh field would drop the detaching
// documents mid-flush).
type TierPair struct {
	Live  string   // the mutable tier field reads must guard
	Snaps []string // the published fields that make a read of Live safe
}

// Snapshot is the snapshot-read contract: every read path — anything
// running under the shard's read lock — that reads a tier's live field must
// consult that tier's published snap fields in the same body (or exclude
// the flush outright by holding FlushField).
type Snapshot struct {
	Pkg  string // package of the sharded engine
	Type string // the shard type

	Tiers      []TierPair // the read tiers, each with its snapshot twin(s)
	GuardField string     // RWMutex whose RLock marks a read path
	FlushField string     // mutex whose (blocking) Lock excludes a flush

	// EncapFields are the shard fields only the shard's own methods may
	// touch: every other layer (engine fan-out, observability closures,
	// reshard streaming) must go through a shard accessor method, which is
	// where the snapshot discipline lives.
	EncapFields []string

	// UnderRLock lists shard methods whose doc contract is "called under
	// GuardField.RLock" — they do not acquire the lock themselves but are
	// read paths all the same.
	UnderRLock []string

	// Constructors build the shard before it is shared and may set
	// EncapFields directly.
	Constructors []string
}

// SnapshotContract is the engine's snapshot-read rule, one TierPair per
// read tier: the on-disk index behind its flush snapshot (with the detached
// batch beside it), and the pending tier behind its detached mid-flush twin.
var SnapshotContract = Snapshot{
	Pkg:  "dualindex",
	Type: "shard",
	Tiers: []TierPair{
		{Live: "index", Snaps: []string{"snap", "snapPending"}},
		{Live: "pending", Snaps: []string{"snapPending"}},
	},
	GuardField:   "mu",
	FlushField:   "flushMu",
	EncapFields:  []string{"index", "snap", "pending", "snapPending"},
	UnderRLock:   []string{"tiers", "prefetchPlan", "verifyDocs"},
	Constructors: []string{"openShard"},
}

// FileIOFuncs are the os package's file-manipulation entry points covered
// by the I/O boundary: everything that opens, creates, renames, removes,
// stats or truncates real files. Environment and process helpers
// (os.Getenv, os.Exit, ...) are not file I/O and stay unrestricted.
var FileIOFuncs = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
	"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
	"Mkdir": true, "MkdirAll": true, "Remove": true, "RemoveAll": true,
	"Rename": true, "Stat": true, "Lstat": true, "Truncate": true,
	"Chmod": true, "Chtimes": true, "Link": true, "Symlink": true,
}

// FileIOPackages are the packages (by import-path suffix) allowed to touch
// the filesystem directly. Everything else reaches storage through
// Options.Backend (a disk.BlockStore), which is what keeps the cost
// accounting and the simulated-trace guarantees honest. Main packages
// (cmd/*, examples/*) are also exempt — CLI tools read corpora and write
// reports — as are the root-package files named in FileIORootFiles, which
// are the file-backend glue itself.
var FileIOPackages = []string{
	"internal/disk",        // the storage layer itself
	"internal/docstore",    // the document log owns its file format
	"internal/manifest",    // MANIFEST.json atomic save/load
	"internal/experiments", // the paper-experiment harness writes artifacts

	// The linter's own loader is tooling, not engine: it reads the
	// compiler's export data and golden-test source trees.
	"internal/analysis/framework",
}

// GoroutinePackages are the packages (by import-path suffix) allowed to
// contain go statements. Every other package runs its concurrent work
// through parallel.Do, which bounds it; the storage layer's AsyncFileStore
// runs one long-lived writer per disk. Main packages (cmd/*, examples/*)
// are also exempt.
var GoroutinePackages = []string{
	"internal/parallel", // the library's one fan-out
	"internal/disk",     // one writer goroutine per disk
}

// FileIORootFiles are the files of the root package that implement the
// file-backend and on-disk-layout glue; only they may do file I/O there.
var FileIORootFiles = []string{"persist.go", "reshard.go"}

// SyscallPackages may import or reference package syscall. None does: the
// storage layer uses os files and preads, and everything else is above the
// store abstraction, so any syscall import is a finding.
var SyscallPackages []string

// DiskImporters are the packages allowed to import internal/disk — the
// layers that implement or sit directly on the block-store abstraction.
// A new package that wants block I/O goes through the engine's
// Options.Backend instead, or is added here deliberately.
var DiskImporters = []string{
	"", // the root package: engine, shard, persistence glue
	"cmd/experiments",
	"cmd/tracer",
	"internal/cache",
	"internal/core",
	"internal/disk",
	"internal/experiments",
	"internal/longlist",
	"internal/rebuild",
}

// CodecSymbols are internal/postings' raw-bytes entry points: the
// functions and types that encode postings into block images or decode
// them back. Only CodecUsers may reference them — every other consumer of
// postings sticks to the List/DocID value API, so postings bytes always
// flow through Options.Codec and the cost accounting sees every block.
var CodecSymbols = map[string]bool{
	"Encode": true, "Decode": true, "EncodedSize": true,
	"BlockCodec": true, "NewBlockCodec": true,
	"PackBlocks": true, "PackBlocksLimit": true, "UnpackBlocks": true,
}

// CodecUsers may call the raw codec (by import-path suffix).
var CodecUsers = []string{
	"internal/postings",
	"internal/bucket",   // bucket images embed encoded short lists
	"internal/longlist", // chunk images are codec-packed
	"internal/core",     // checkpoint/restart re-derives block images
	"internal/experiments",
}

// MetricRegistrar identifies the metrics registry's registration methods;
// their name argument must be a literal lower_snake metric name.
type MetricRegistrar struct {
	Pkg     string // defining package name
	Type    string // receiver type
	Methods map[string]bool
}

// MetricsContract covers internal/metrics' Registry.
var MetricsContract = MetricRegistrar{
	Pkg:  "metrics",
	Type: "Registry",
	Methods: map[string]bool{
		"Counter": true, "Histogram": true, "RegisterFunc": true,
	},
}
