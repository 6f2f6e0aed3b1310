package experiments

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"dualindex/internal/bucket"
	"dualindex/internal/core"
	"dualindex/internal/corpus"
	"dualindex/internal/disk"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
)

// pipelineParams is a small configuration for the pipeline tests: 64
// buckets of 256 units over two disks, 10 postings a block.
func pipelineParams(days int) Params {
	p := DefaultParams()
	p.Corpus.Days = days
	p.Corpus.DocsPerDay = 60
	p.Corpus.WordsPerDoc = 25
	p.Corpus.VocabSize = 10_000
	p.Corpus.CoreVocab = 300
	p.Corpus.TinyUpdateDay = -1
	p.Buckets = 64
	p.BucketSize = 256
	p.BlockPosting = 10
	p.Geometry = disk.Geometry{NumDisks: 2, BlocksPerDisk: 131072, BlockSize: 512}
	return p
}

func pipelineEnv(t *testing.T, days int) *Env {
	t.Helper()
	env, err := NewEnv(pipelineParams(days))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func traceText(t *testing.T, tr *disk.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// applyBatches is the one-call path: every batch through ApplyBatch on a
// fresh index configured as env's runs of policy p.
func applyBatches(t *testing.T, env *Env, p longlist.Policy) *core.Index {
	t.Helper()
	ix, err := core.New(env.coreConfig(p))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range env.Batches {
		if _, err := ix.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	return ix
}

// TestStagedTraceMatchesApplyBatch pins the paper's decoupled pipeline to
// the engine's update: the bucket stage run once and the disk stage run
// per policy must write, byte for byte, the I/O trace of ApplyBatch.
func TestStagedTraceMatchesApplyBatch(t *testing.T) {
	for _, env := range []*Env{pipelineEnv(t, 8), quickEnv(t)} {
		for _, p := range longlist.FigurePolicies() {
			run, err := env.RunPolicy(p)
			if err != nil {
				t.Fatal(err)
			}
			staged := traceText(t, run.Array().Trace())
			oneCall := traceText(t, applyBatches(t, env, p).Array().Trace())
			if !bytes.Equal(staged, oneCall) {
				t.Errorf("%d days, %v: staged trace (%d bytes) differs from ApplyBatch's (%d bytes)",
					len(env.Batches), p, len(staged), len(oneCall))
			}
		}
	}
}

// TestEvictedWordTakesLongPathLaterInBatch covers a word that an earlier
// word of the same batch evicts, and that then appears itself: from the
// eviction on it is long, so its own postings append to its long list in
// both paths, and it never returns to a bucket. A stage that routed the
// batch against the directory as it stood at batch start would put it
// back in a bucket.
func TestEvictedWordTakesLongPathLaterInBatch(t *testing.T) {
	doc := func(id postings.DocID, words ...corpus.WordID) corpus.Document {
		return corpus.Document{ID: id, Words: words}
	}
	// One bucket of 6 units. Day 0 leaves word 5 in it with 3 postings
	// (4 units). On day 1 word 2 (2 postings) overflows it, which evicts
	// the longest list, word 5's; then word 5 arrives with 1 posting.
	batches := []*corpus.Batch{
		{Day: 0, Docs: []corpus.Document{doc(1, 5), doc(2, 5), doc(3, 5)}},
		{Day: 1, Docs: []corpus.Document{doc(4, 2, 5), doc(5, 2)}},
	}
	p := pipelineParams(2)
	p.Buckets, p.BucketSize, p.BlockPosting = 1, 6, 2
	env, err := newEnv(p, batches)
	if err != nil {
		t.Fatal(err)
	}
	want := []core.WordUpdate{{Word: 5, Count: 3}, {Word: 5, Count: 1}}
	if !slices.Equal(env.long[1], want) {
		t.Fatalf("day 1 long-list updates %v, want %v", env.long[1], want)
	}
	if st := env.stats[1]; st.BucketWords != 0 || st.NewWords != 1 || st.LongWords != 1 || st.Evictions != 1 {
		t.Errorf("day 1 categories %+v, want 1 new, 1 long, 1 eviction", st)
	}
	for _, pol := range longlist.FigurePolicies() {
		run, err := env.RunPolicy(pol)
		if err != nil {
			t.Fatal(err)
		}
		ix := applyBatches(t, env, pol)
		if got := run.Directory().Postings(5); got != 4 {
			t.Errorf("%v: staged long list of word 5 holds %d postings, want 4", pol, got)
		}
		if got := ix.Lookup(5); got != core.SourceLong {
			t.Errorf("%v: ApplyBatch left word 5 in %v, want long", pol, got)
		}
		if got := ix.Directory().Postings(5); got != 4 {
			t.Errorf("%v: ApplyBatch long list of word 5 holds %d postings, want 4", pol, got)
		}
		if !bytes.Equal(traceText(t, run.Array().Trace()), traceText(t, ix.Array().Trace())) {
			t.Errorf("%v: staged trace differs from ApplyBatch's", pol)
		}
	}
}

func TestPolicyOrderings(t *testing.T) {
	env := pipelineEnv(t, 15)
	ops := map[string]int64{}
	utils := map[string]float64{}
	reads := map[string]float64{}
	for _, p := range longlist.FigurePolicies() {
		r, err := env.RunPolicy(p)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		last := r.PerUpdate[len(r.PerUpdate)-1]
		ops[p.String()] = last.CumOps
		utils[p.String()] = last.Utilization
		reads[p.String()] = last.AvgReadsPerList
	}
	// Figure 8 orderings: limit-0 styles cheapest; whole bounds the new
	// style from above (one read + one write per append, in-place or not).
	if !(ops["new 0"] <= ops["new z"] && ops["fill 0 e=2"] <= ops["fill z e=2"]) {
		t.Errorf("in-place updates did not cost more ops: %v", ops)
	}
	if ops["whole 0"] < ops["new z"] {
		t.Errorf("whole style below new z: %v", ops)
	}
	if ops["whole 0"] != ops["whole z"] {
		t.Errorf("whole 0 and whole z should count the same ops: %v", ops)
	}
	// Figure 9 orderings: whole near-fully utilized (only block-rounding
	// slack), limit-0 wasteful.
	if utils["whole 0"] < 0.95 {
		t.Errorf("whole utilization %v < 0.95", utils["whole 0"])
	}
	if !(utils["new 0"] < utils["new z"] && utils["fill 0 e=2"] < utils["fill z e=2"]) {
		t.Errorf("in-place updates did not improve utilization: %v", utils)
	}
	// Figure 10 orderings: whole reads = 1; others worse.
	if reads["whole 0"] != 1.0 {
		t.Errorf("whole reads = %v", reads["whole 0"])
	}
	if !(reads["new z"] <= reads["new 0"] && reads["fill z e=2"] <= reads["fill 0 e=2"]) {
		t.Errorf("in-place updates did not improve read cost: %v", reads)
	}
}

func TestTraceFileRoundtripThroughExerciser(t *testing.T) {
	// The paper's processes are connected by trace files: serialising the
	// disk stage's trace and replaying the parsed copy must give exactly
	// the same modelled times as the in-memory trace.
	env := pipelineEnv(t, 6)
	r, err := env.RunPolicy(longlist.QueryOptimized())
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := disk.ReadText(bytes.NewReader(traceText(t, r.Array().Trace())))
	if err != nil {
		t.Fatal(err)
	}
	direct := env.Exercise(r, disk.Seagate1993())
	x := disk.NewExerciser(env.Params.Geometry)
	x.Profile = disk.Seagate1993()
	x.BufferBlocks = env.Params.BufferBlocks
	viaFile := x.Run(parsed)
	if len(direct.Batches) != 6 || len(viaFile.Batches) != 6 {
		t.Fatalf("batches: direct %d, via file %d, want 6", len(direct.Batches), len(viaFile.Batches))
	}
	if direct.Total() <= 0 || direct.Total() != viaFile.Total() {
		t.Fatalf("file roundtrip changed timing: %v vs %v", direct.Total(), viaFile.Total())
	}
}

func TestExerciseTimesGrow(t *testing.T) {
	env := pipelineEnv(t, 10)
	r, err := env.RunPolicy(longlist.UpdateOptimized())
	if err != nil {
		t.Fatal(err)
	}
	result := env.Exercise(r, disk.Seagate1993())
	if len(result.Batches) != 10 {
		t.Fatalf("batches = %d", len(result.Batches))
	}
	if result.Total() <= 0 {
		t.Fatal("zero total time")
	}
	// A faster disk finishes sooner; an optical disk later.
	if fast := env.Exercise(r, disk.FastSCSI1995()); fast.Total() >= result.Total() {
		t.Errorf("fast disk (%v) not faster than 1993 disk (%v)", fast.Total(), result.Total())
	}
	if optical := env.Exercise(r, disk.Optical1993()); optical.Total() <= result.Total() {
		t.Errorf("optical (%v) not slower than magnetic (%v)", optical.Total(), result.Total())
	}
}

func TestBucketStageTraceShape(t *testing.T) {
	env := pipelineEnv(t, 10)
	set, err := bucket.NewSet(bucket.Config{NumBuckets: env.Params.Buckets, BucketSize: env.Params.BucketSize})
	if err != nil {
		t.Fatal(err)
	}
	long, stats, err := bucketStage(env.Batches, set)
	if err != nil {
		t.Fatal(err)
	}
	if len(long) != 10 || len(stats) != 10 {
		t.Fatalf("batches=%d stats=%d", len(long), len(stats))
	}
	// First update: everything is new, nothing is long.
	if nf, bf, lf := stats[0].Fractions(); nf != 1 || bf != 0 || lf != 0 {
		t.Errorf("first update fractions: %v %v %v", nf, bf, lf)
	}
	// Later updates: bucket words dominate, some long words exist.
	nfL, bfL, lfL := stats[9].Fractions()
	if nfL > 0.5 {
		t.Errorf("late new-word fraction %v too high", nfL)
	}
	if bfL == 0 || lfL == 0 {
		t.Errorf("late fractions missing categories: bucket=%v long=%v", bfL, lfL)
	}
	// Eventually evictions produce long-list updates.
	total := 0
	for _, b := range long {
		total += len(b)
	}
	if total == 0 {
		t.Fatal("no long-list updates generated")
	}
	if set.TotalWords() == 0 || set.TotalLoad() == set.TotalWords() {
		t.Error("final bucket occupancy empty")
	}
}

func TestFigure1AnimationCap(t *testing.T) {
	const maxSamples = 200
	env := quickEnv(t)
	samples, err := env.Figure1(3, maxSamples)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != maxSamples {
		t.Fatalf("%d samples, want the cap of %d", len(samples), maxSamples)
	}
	// Samples may transiently exceed the bucket size at the overflow moment
	// (Figure 1's spikes), but an eviction must then bring the bucket back
	// within capacity: overshoot never persists across two samples.
	size := env.Params.BucketSize * env.Params.Buckets / 100
	for i := 1; i < len(samples); i++ {
		prev, s := samples[i-1], samples[i]
		if prev.Words+prev.Postings > size && s.Words+s.Postings > size {
			t.Fatalf("overshoot persisted at samples %d-%d: %+v → %+v", i-1, i, prev, s)
		}
	}
	first, last := samples[0], samples[len(samples)-1]
	if last.Words+last.Postings <= first.Words+first.Postings {
		t.Errorf("bucket did not fill: first %+v last %+v", first, last)
	}
}

func TestScaledParamsRefusesBadFactors(t *testing.T) {
	for _, f := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := ScaledParams(f); err == nil {
			t.Errorf("scale %v accepted", f)
		}
	}
	if p, err := ScaledParams(1); err != nil || p != DefaultParams() {
		t.Errorf("scale 1: %+v, %v; want DefaultParams", p, err)
	}
	if p, err := ScaledParams(0.25); err != nil || p != DefaultParams().Scaled(0.25) {
		t.Errorf("scale 0.25: %+v, %v; want DefaultParams().Scaled(0.25)", p, err)
	}
}
