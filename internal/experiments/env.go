package experiments

import (
	"fmt"

	"dualindex/internal/bucket"
	"dualindex/internal/core"
	"dualindex/internal/corpus"
	"dualindex/internal/disk"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
)

// Env is a prepared experiment environment: the generated corpus and the
// policy-independent bucket stage, shared by every artifact so that
// policies are compared on the identical update sequence. This is the
// paper's decoupled pipeline (§4, Figure 3): core's bucket stage runs once
// per corpus, and its long-list updates drive core's disk stage once per
// policy.
type Env struct {
	Params  Params
	Batches []*corpus.Batch

	// long holds each batch's long-list updates, in the order the bucket
	// stage handed them over; stats holds each batch's word categories.
	long  [][]core.WordUpdate
	stats []core.UpdateStats

	policyRuns map[string]*PolicyRun
}

// NewEnv generates the corpus and runs the bucket stage over it.
func NewEnv(p Params) (*Env, error) {
	batches, err := corpus.GenerateAll(p.Corpus)
	if err != nil {
		return nil, err
	}
	return newEnv(p, batches)
}

func newEnv(p Params, batches []*corpus.Batch) (*Env, error) {
	set, err := bucket.NewSet(bucket.Config{NumBuckets: p.Buckets, BucketSize: p.BucketSize})
	if err != nil {
		return nil, err
	}
	e := &Env{Params: p, Batches: batches, policyRuns: make(map[string]*PolicyRun)}
	e.long, e.stats, err = bucketStage(batches, set)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// bucketStage runs core's bucket stage over every batch against set, with
// counts only: the paper's compute-buckets process. A word is long from
// the moment the stage hands it over, its own update or an eviction.
func bucketStage(batches []*corpus.Batch, set *bucket.Set) ([][]core.WordUpdate, []core.UpdateStats, error) {
	isLong := make(map[postings.WordID]bool)
	long := make([][]core.WordUpdate, 0, len(batches))
	stats := make([]core.UpdateStats, 0, len(batches))
	for _, b := range batches {
		var updates []core.WordUpdate
		st, err := core.BucketStage(set, core.UpdatesFromBatch(b, false),
			func(w postings.WordID) bool { return isLong[w] },
			func(u core.WordUpdate) error {
				isLong[u.Word] = true
				updates = append(updates, u)
				return nil
			})
		if err != nil {
			return nil, nil, err
		}
		long = append(long, updates)
		stats = append(stats, st)
	}
	return long, stats, nil
}

// PolicyRun is one disk-stage run over the Env's long-list updates: the
// simulated index it built and the index's state after every batch.
type PolicyRun struct {
	*core.Index
	PerUpdate []core.UpdateStats
}

// coreConfig is the simulated index of one policy under the Env's
// parameters.
func (e *Env) coreConfig(p longlist.Policy) core.Config {
	return core.Config{
		Buckets:      e.Params.Buckets,
		BucketSize:   e.Params.BucketSize,
		BlockPosting: e.Params.BlockPosting,
		Geometry:     e.Params.Geometry,
		Policy:       p,
	}
}

// RunPolicy runs (and memoises) the disk stage for one policy.
func (e *Env) RunPolicy(p longlist.Policy) (*PolicyRun, error) {
	key := p.Normalize().String()
	if r, ok := e.policyRuns[key]; ok {
		return r, nil
	}
	r, err := e.runDisks(e.coreConfig(p))
	if err != nil {
		return nil, fmt.Errorf("experiments: policy %v: %w", p, err)
	}
	e.policyRuns[key] = r
	return r, nil
}

// runDisks replays every batch's long-list updates through core's disk
// stage on a fresh simulated index: the paper's compute-disks process.
func (e *Env) runDisks(cfg core.Config) (*PolicyRun, error) {
	ix, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	r := &PolicyRun{Index: ix, PerUpdate: make([]core.UpdateStats, 0, len(e.long))}
	for i, long := range e.long {
		st, err := ix.DiskStage(long)
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", i, err)
		}
		r.PerUpdate = append(r.PerUpdate, st)
	}
	return r, nil
}

// Exercise replays a run's I/O trace on the disk timing model with the
// given disk profile: the paper's exercise-disks process.
func (e *Env) Exercise(r *PolicyRun, prof disk.Profile) disk.Result {
	x := disk.NewExerciser(r.Array().Geometry())
	x.Profile = prof
	x.BufferBlocks = e.Params.BufferBlocks
	return x.Run(r.Array().Trace())
}
