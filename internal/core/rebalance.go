package core

import (
	"fmt"
	"slices"

	"dualindex/internal/bucket"
	"dualindex/internal/postings"
)

// BucketLoadFactor reports how full the bucket space is: total resident
// units (words + postings) over total capacity. The paper's §7 observes
// that as the database grows, a fixed bucket configuration degrades —
// monitoring this factor tells an operator when to rebalance.
func (ix *Index) BucketLoadFactor() float64 { return ix.buckets.LoadFactor() }

// RebalanceBuckets moves every short list into a new bucket space of the
// given geometry — the paper's proposed remedy for index degradation
// ("periodically, as the buckets are read, they can be expanded and written
// in a larger region of disk" and "a strategy to rebalance the division
// between short and long lists"). Growing the space lets previously
// crowded buckets keep more words short; shrinking it evicts the longest
// lists into long lists, rebalancing the short/long division. The new
// geometry is checkpointed by the flush that completes the rebalance.
func (ix *Index) RebalanceBuckets(numBuckets, bucketSize int) error {
	if numBuckets <= 0 || bucketSize <= 1 {
		return fmt.Errorf("core: bad rebalance geometry %d×%d", numBuckets, bucketSize)
	}
	fresh, err := bucket.NewSet(bucket.Config{
		NumBuckets:    numBuckets,
		BucketSize:    bucketSize,
		TrackPostings: ix.cfg.Store != nil,
	})
	if err != nil {
		return err
	}
	type shortList struct {
		w     postings.WordID
		count int
		list  *postings.List
	}
	var lists []shortList
	ix.buckets.ForEachWord(func(w postings.WordID, count int) {
		lists = append(lists, shortList{w: w, count: count, list: ix.buckets.List(w)})
	})
	slices.SortFunc(lists, func(a, b shortList) int { return int(a.w) - int(b.w) })

	for _, sl := range lists {
		evs, err := fresh.Add(sl.w, sl.count, sl.list)
		if err != nil {
			return fmt.Errorf("core: rebalance of word %d: %w", sl.w, err)
		}
		for _, ev := range evs {
			if err := ix.long.Append(ev.Word, int64(ev.Count), ev.List); err != nil {
				return fmt.Errorf("core: rebalance eviction of word %d: %w", ev.Word, err)
			}
		}
	}
	ix.buckets = fresh
	ix.cfg.Buckets = numBuckets
	ix.cfg.BucketSize = bucketSize
	return ix.flush(nil)
}
