package experiments

import (
	"time"

	"dualindex/internal/longlist"
	"dualindex/internal/rebuild"
)

// MotivationRow compares an index-maintenance regime on the axes of the
// paper's introduction: total build cost, the freshness of new documents,
// and the query quality of the resulting layout.
type MotivationRow struct {
	Regime string
	// Total is the modelled cumulative maintenance time over all 73 days.
	Total time.Duration
	// StalenessBatches is how many batches a new document can wait before
	// becoming searchable (0 = searchable within its own batch).
	StalenessBatches int
	// ReadsPerList and Utilization describe the final layout.
	ReadsPerList float64
	Utilization  float64
}

// Motivation quantifies the paper's opening argument: full reconstruction
// amortises well over a weekend but cannot deliver fresh documents, while
// in-place updates keep every batch searchable immediately at a bounded
// per-day cost.
func (e *Env) Motivation() ([]MotivationRow, error) {
	var rows []MotivationRow
	for _, every := range []int{1, 7} {
		r := rebuild.Run(e.Batches, rebuild.Config{
			Geometry:     e.Params.Geometry,
			BlockPosting: e.Params.BlockPosting,
			Profile:      e.Params.Profile,
			Every:        every,
		})
		name := "rebuild daily"
		if every == 7 {
			name = "rebuild weekly"
		}
		rows = append(rows, MotivationRow{
			Regime:           name,
			Total:            r.Total,
			StalenessBatches: r.MaxStaleness,
			ReadsPerList:     r.FinalReadsPerList,
			Utilization:      r.FinalUtilization,
		})
	}
	for _, p := range []longlist.Policy{longlist.NewRecommended(), longlist.QueryOptimized()} {
		run, err := e.RunPolicy(p)
		if err != nil {
			return nil, err
		}
		res := e.Exercise(run, e.Params.Profile)
		last := run.PerUpdate[len(run.PerUpdate)-1]
		rows = append(rows, MotivationRow{
			Regime:           "incremental " + p.String(),
			Total:            res.Total(),
			StalenessBatches: 0, // the in-memory batch is searchable immediately
			ReadsPerList:     last.AvgReadsPerList,
			Utilization:      last.Utilization,
		})
	}
	return rows, nil
}
