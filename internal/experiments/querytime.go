package experiments

import (
	"cmp"
	"slices"
	"time"

	"dualindex/internal/longlist"
)

// QueryTimeRow models the wall-clock latency of reading long lists under
// one policy on the disk array: per-disk chunk reads proceed in parallel
// (the array answers the paper's question "can we stripe large lists across
// multiple disks to improve performance?"), so a list's latency is the
// busiest disk's share of its chunks.
type QueryTimeRow struct {
	Policy string
	// AvgLatency is the mean modelled latency over every long list.
	AvgLatency time.Duration
	// Top10Latency is the mean over the ten longest lists — where striping
	// matters, because a single-disk contiguous read is transfer-bound.
	Top10Latency time.Duration
	// AvgDisksTouched is the mean number of distinct disks a list's read
	// fans out to.
	AvgDisksTouched float64
}

// QueryTimeStudy models list-read latency for the paper's recommended
// policies.
func (e *Env) QueryTimeStudy() ([]QueryTimeRow, error) {
	prof := e.Params.Profile
	geo := e.Params.Geometry
	var rows []QueryTimeRow
	for _, p := range []longlist.Policy{
		longlist.UpdateOptimized(),
		longlist.NewRecommended(),
		longlist.FillRecommended(),
		{Style: longlist.StyleFill, Limit: longlist.LimitZ, ExtentBlocks: 16},
		longlist.QueryOptimized(),
	} {
		r, err := e.RunPolicy(p)
		if err != nil {
			return nil, err
		}
		words := r.Directory().Words()
		if len(words) == 0 {
			continue
		}
		latencies := make([]time.Duration, 0, len(words))
		sizes := make([]int64, 0, len(words))
		var disksTouched float64
		for _, w := range words {
			perDisk := map[int]time.Duration{}
			for _, c := range r.Directory().Chunks(w) {
				blocks := (c.Postings + e.Params.BlockPosting - 1) / e.Params.BlockPosting
				if blocks == 0 {
					continue
				}
				// One chunk read: overhead + average seek + rotation +
				// transfer. Chunks on the same disk serialise; disks work in
				// parallel.
				perDisk[c.Disk] += prof.Overhead + prof.AvgSeek(geo.BlocksPerDisk) +
					prof.RotationalLatency() + prof.TransferTime(blocks*int64(geo.BlockSize))
			}
			var worst time.Duration
			for _, d := range perDisk {
				if d > worst {
					worst = d
				}
			}
			latencies = append(latencies, worst)
			sizes = append(sizes, r.Directory().Postings(w))
			disksTouched += float64(len(perDisk))
		}
		row := QueryTimeRow{
			Policy:          p.String(),
			AvgLatency:      mean(latencies),
			AvgDisksTouched: disksTouched / float64(len(words)),
		}
		// The ten longest lists.
		idx := make([]int, len(words))
		for i := range idx {
			idx[i] = i
		}
		slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(sizes[b], sizes[a]) })
		var top []time.Duration
		for i := 0; i < 10 && i < len(idx); i++ {
			top = append(top, latencies[idx[i]])
		}
		row.Top10Latency = mean(top)
		rows = append(rows, row)
	}
	return rows, nil
}

func mean(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}
