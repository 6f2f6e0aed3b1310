package experiments

import (
	"dualindex/internal/core"
	"dualindex/internal/longlist"
)

// RebalancePoint compares an index built with a fixed bucket configuration
// against one whose bucket space is periodically rebalanced as it fills —
// the paper's §7 proposal for keeping the short/long division healthy as
// the database grows.
type RebalancePoint struct {
	Rebalanced   bool
	LongLists    int
	BucketWords  int
	LoadFactor   float64
	Ops          int64
	AvgReadsList float64
}

// ExtensionRebalance builds the corpus twice under the recommended policy:
// once with fixed buckets, once growing the bucket space whenever its load
// factor crosses threshold (doubling BucketSize each time).
func (e *Env) ExtensionRebalance(threshold float64) ([]RebalancePoint, error) {
	var out []RebalancePoint
	for _, rebalance := range []bool{false, true} {
		ix, err := core.New(e.coreConfig(longlist.NewRecommended()))
		if err != nil {
			return nil, err
		}
		bucketSize := e.Params.BucketSize
		for _, b := range e.Batches {
			if _, err := ix.ApplyBatch(b); err != nil {
				return nil, err
			}
			if rebalance && ix.BucketLoadFactor() > threshold {
				bucketSize *= 2
				if err := ix.RebalanceBuckets(e.Params.Buckets, bucketSize); err != nil {
					return nil, err
				}
			}
		}
		out = append(out, RebalancePoint{
			Rebalanced:   rebalance,
			LongLists:    ix.Directory().NumWords(),
			BucketWords:  ix.Buckets().TotalWords(),
			LoadFactor:   ix.BucketLoadFactor(),
			Ops:          ix.Array().Ops(),
			AvgReadsList: ix.Directory().AvgReadsPerList(),
		})
	}
	return out, nil
}
