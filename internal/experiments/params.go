// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) plus the extended-version experiments it cites:
// bucket behaviour (Figure 1), word-category fractions (Figure 7), the
// policy comparison in I/O operations, utilization and read cost (Figures
// 8-10), the allocation-strategy tables (Tables 5 and 6), the proportional
// constant sweep (Figures 11 and 12), real-time execution via the disk
// timing model (Figures 13 and 14), and the disk-count/disk-speed and
// database-scale extensions.
package experiments

import (
	"fmt"
	"math"

	"dualindex/internal/corpus"
	"dualindex/internal/disk"
)

// Params fixes one experiment configuration: the corpus and the paper's
// Table 4 variables. The defaults are the Table 4 base case scaled to the
// synthetic corpus (≈3 M postings instead of the paper's tens of millions);
// bucket capacity is scaled by the same factor so the short/long division
// operates in the same regime.
type Params struct {
	Corpus       corpus.Config
	Buckets      int   // Table 4: Buckets
	BucketSize   int   // Table 4: BucketSize
	BlockPosting int64 // Table 4: BlockPosting
	BufferBlocks int64 // Table 4: BufferBlock
	Geometry     disk.Geometry
	Profile      disk.Profile
}

// DefaultParams returns the base experiment configuration, calibrated so
// that the reduced-scale corpus operates in the paper's regime:
//
//   - Buckets × BucketSize ≈ vocabulary + infrequent postings, so the
//     buckets hold all infrequent words (as the paper assumes) and only the
//     ~2k frequent words overflow into long lists;
//   - BlockPosting sized so a typical long list spans a handful of blocks
//     and a typical in-memory update fits the block slack of its list —
//     the ratios behind the paper's Figures 8-10 shapes;
//   - the bucket region flushed per batch is a few thousand blocks, small
//     next to the long-list traffic, as in the paper's Figure 6 trace.
func DefaultParams() Params {
	return Params{
		Corpus:       corpus.DefaultConfig(),
		Buckets:      256,
		BucketSize:   1536,
		BlockPosting: 200,
		BufferBlocks: 256,
		Geometry:     disk.DefaultGeometry(),
		Profile:      disk.Seagate1993(),
	}
}

// Scaled shrinks or grows the experiment: document volume, bucket capacity
// and block capacity scale together so that eviction dynamics and the ratio
// of list sizes to block sizes stay in the paper's regime.
func (p Params) Scaled(f float64) Params {
	p.Corpus = p.Corpus.Scaled(f)
	p.BucketSize = int(float64(p.BucketSize) * f)
	if p.BucketSize < 64 {
		p.BucketSize = 64
	}
	p.BlockPosting = int64(float64(p.BlockPosting) * f)
	if p.BlockPosting < 20 {
		p.BlockPosting = 20
	}
	return p
}

// ScaledParams returns DefaultParams scaled by f, refusing a factor that is
// not a positive finite number: the corpus clamps its size to one document
// a day, so a factor of 0 or less, or NaN, would otherwise run as the
// smallest corpus without a word, and an infinite one overflows the sizes.
func ScaledParams(f float64) (Params, error) {
	if !(f > 0) || math.IsInf(f, 1) {
		return Params{}, fmt.Errorf("scale %v: must be a positive finite number", f)
	}
	return DefaultParams().Scaled(f), nil
}
