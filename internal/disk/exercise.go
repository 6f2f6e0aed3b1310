package disk

import (
	"time"
)

// Exerciser replays an I/O trace against the timing model, reproducing the
// paper's exercise-disks process: requests to each disk are serviced by
// independent per-disk processes (maximum parallelism), and adjacent
// requests are coalesced — without reordering — up to BufferBlocks blocks
// per combined request, modelling a finite amount of I/O buffering.
type Exerciser struct {
	Geometry     Geometry
	Profile      Profile
	BufferBlocks int64 // coalescing limit per combined request (paper: BufferBlock)
}

// NewExerciser returns an exerciser with the paper's base configuration for
// the given geometry.
func NewExerciser(geo Geometry) *Exerciser {
	return &Exerciser{Geometry: geo, Profile: Seagate1993(), BufferBlocks: 256}
}

// BatchResult reports the modelled execution of one batch update.
type BatchResult struct {
	Elapsed      time.Duration   // max over per-disk busy times
	PerDisk      []time.Duration // busy time of each disk
	Ops          int             // operations before coalescing
	CoalescedOps int             // operations actually issued
	Blocks       int64           // blocks moved
}

// Result reports a whole trace execution.
type Result struct {
	Batches []BatchResult
}

// Total returns the cumulative elapsed time across batches, the paper's
// Figure 13 measure.
func (r Result) Total() time.Duration {
	var sum time.Duration
	for _, b := range r.Batches {
		sum += b.Elapsed
	}
	return sum
}

// Run replays the full trace and returns per-batch timings. Head positions
// persist across batches, as they do on real hardware.
func (e *Exerciser) Run(t *Trace) Result {
	heads := make([]int64, e.Geometry.NumDisks)
	res := Result{Batches: make([]BatchResult, 0, t.NumBatches())}
	for i := 0; i < t.NumBatches(); i++ {
		res.Batches = append(res.Batches, e.runBatch(t.Batch(i), heads))
	}
	return res
}

// runBatch services one batch: split ops by disk preserving order, coalesce
// per disk, and charge each disk its own service time; the batch takes as
// long as its busiest disk.
func (e *Exerciser) runBatch(ops []Op, heads []int64) BatchResult {
	br := BatchResult{PerDisk: make([]time.Duration, e.Geometry.NumDisks), Ops: len(ops)}
	perDisk := make([][]Op, e.Geometry.NumDisks)
	for _, op := range ops {
		perDisk[op.Disk] = append(perDisk[op.Disk], op)
		br.Blocks += op.Count
	}
	for d, dops := range perDisk {
		coalesced := e.coalesce(dops)
		br.CoalescedOps += len(coalesced)
		var busy time.Duration
		for _, op := range coalesced {
			busy += e.Profile.OpTime(heads[d], op.Block, op.Count, e.Geometry.BlocksPerDisk, e.Geometry.BlockSize)
			heads[d] = op.Block + op.Count
		}
		br.PerDisk[d] = busy
		if busy > br.Elapsed {
			br.Elapsed = busy
		}
	}
	return br
}

// coalesce merges consecutive same-kind operations that are contiguous on
// disk into single requests of at most BufferBlocks blocks. The trace order
// is preserved exactly ("without reordering the execution trace").
func (e *Exerciser) coalesce(ops []Op) []Op {
	if len(ops) == 0 {
		return nil
	}
	limit := e.BufferBlocks
	if limit <= 0 {
		limit = 1 << 62 // unlimited
	}
	out := make([]Op, 0, len(ops))
	cur := ops[0]
	for _, op := range ops[1:] {
		if op.Kind == cur.Kind && op.Block == cur.Block+cur.Count && cur.Count+op.Count <= limit {
			cur.Count += op.Count
			continue
		}
		out = append(out, cur)
		cur = op
	}
	return append(out, cur)
}
