package experiments

import (
	"time"

	"dualindex/internal/longlist"
)

// AllocatorRow compares free-space managers for one policy: the paper's
// first-fit against the buddy system its related-work section flags for
// further study ("its expected space utilization is lower ... however it
// may offer better update performance").
type AllocatorRow struct {
	Policy    string
	Allocator string
	Ops       int64
	Time      time.Duration
	// ListUtil is the internal long-list utilization (the paper's metric:
	// postings / chunk capacity).
	ListUtil float64
	// DiskUtil additionally charges allocator-level waste: postings divided
	// by the capacity of every block actually consumed on disk. Buddy's
	// power-of-two rounding shows up here and nowhere else.
	DiskUtil float64
}

// AblationAllocators runs the allocator comparison for the recommended
// new-style and whole-style policies.
func (e *Env) AblationAllocators() ([]AllocatorRow, error) {
	var out []AllocatorRow
	for _, p := range []longlist.Policy{longlist.NewRecommended(), longlist.QueryOptimized()} {
		for _, buddy := range []bool{false, true} {
			cfg := e.coreConfig(p)
			cfg.UseBuddy = buddy
			r, err := e.runDisks(cfg)
			if err != nil {
				return nil, err
			}
			res := e.Exercise(r, e.Params.Profile)
			name := "first-fit"
			if buddy {
				name = "buddy"
			}
			last := r.PerUpdate[len(r.PerUpdate)-1]
			// Blocks consumed on disk: with the buddy allocator this exceeds
			// what the directory knows about by the rounding waste.
			consumed := int64(cfg.Geometry.NumDisks)*cfg.Geometry.BlocksPerDisk - r.Array().FreeBlocks()
			diskUtil := 0.0
			if consumed > 0 {
				diskUtil = float64(r.Directory().TotalPostings()) / float64(consumed*e.Params.BlockPosting)
			}
			out = append(out, AllocatorRow{
				Policy:    p.String(),
				Allocator: name,
				Ops:       last.CumOps,
				Time:      res.Total(),
				ListUtil:  last.Utilization,
				DiskUtil:  diskUtil,
			})
		}
	}
	return out, nil
}

// AdaptiveRow compares reserved-space strategies at matched policy styles.
type AdaptiveRow struct {
	Policy  string
	Ops     int64
	Util    float64
	Reads   float64
	InPlace int64
	Frac    float64
}

// AblationAdaptive evaluates the adaptive allocation strategy (Faloutsos &
// Jagadish's scheme, which the paper mentions but does not study) against
// the paper's recommended proportional constants, for both styles.
func (e *Env) AblationAdaptive() ([]AdaptiveRow, error) {
	policies := []longlist.Policy{
		{Style: longlist.StyleNew, Limit: longlist.LimitZ, Alloc: longlist.AllocProportional, K: 2.0},
		{Style: longlist.StyleNew, Limit: longlist.LimitZ, Alloc: longlist.AllocAdaptive, K: 1},
		{Style: longlist.StyleNew, Limit: longlist.LimitZ, Alloc: longlist.AllocAdaptive, K: 2},
		{Style: longlist.StyleWhole, Limit: longlist.LimitZ, Alloc: longlist.AllocProportional, K: 1.2},
		{Style: longlist.StyleWhole, Limit: longlist.LimitZ, Alloc: longlist.AllocAdaptive, K: 1},
		{Style: longlist.StyleWhole, Limit: longlist.LimitZ, Alloc: longlist.AllocAdaptive, K: 2},
	}
	var out []AdaptiveRow
	for _, p := range policies {
		r, err := e.RunPolicy(p)
		if err != nil {
			return nil, err
		}
		last := r.PerUpdate[len(r.PerUpdate)-1]
		stats := r.LongLists().Stats()
		out = append(out, AdaptiveRow{
			Policy:  p.Normalize().String(),
			Ops:     last.CumOps,
			Util:    last.Utilization,
			Reads:   last.AvgReadsPerList,
			InPlace: stats.InPlace,
			Frac:    stats.InPlaceFrac(),
		})
	}
	return out, nil
}
