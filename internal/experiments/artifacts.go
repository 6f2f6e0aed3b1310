package experiments

import (
	"fmt"
	"strings"
	"time"

	"dualindex/internal/bucket"
	"dualindex/internal/core"
	"dualindex/internal/corpus"
	"dualindex/internal/disk"
	"dualindex/internal/longlist"
)

// Table1 computes the corpus statistics table.
func (e *Env) Table1() corpus.Stats {
	return corpus.ComputeStats(e.Batches)
}

// Table3 returns the first n word-occurrence pairs of the first batch
// update — the paper's sample of a batch update.
func (e *Env) Table3(n int) []corpus.WordCount {
	u := e.Batches[0].Update()
	if n > len(u) {
		n = len(u)
	}
	return u[:n]
}

// BucketSample is one Figure 1 animation point: the state of one bucket
// after a change to it.
type BucketSample struct {
	Words    int
	Postings int
}

// Figure1 runs the bucket stage on the paper's small bucket system (100
// buckets) and returns the animation of one bucket over its first
// maxSamples changes.
func (e *Env) Figure1(observeBucket, maxSamples int) ([]BucketSample, error) {
	set, err := bucket.NewSet(bucket.Config{
		NumBuckets: 100,
		BucketSize: e.Params.BucketSize * e.Params.Buckets / 100,
	})
	if err != nil {
		return nil, err
	}
	var samples []BucketSample
	set.SetObserver(func(b int) {
		if b == observeBucket && len(samples) < maxSamples {
			samples = append(samples, BucketSample{Words: set.WordsIn(b), Postings: set.PostingsIn(b)})
		}
	})
	if _, _, err := bucketStage(e.Batches, set); err != nil {
		return nil, err
	}
	return samples, nil
}

// Figure7 returns the per-update word categories, whose Fractions are
// the figure.
func (e *Env) Figure7() []core.UpdateStats {
	return e.stats
}

// FigureCurvePolicies returns the policies whose curves appear in Figures
// 8-10 and 13-14, in the paper's label order.
func FigureCurvePolicies() []longlist.Policy {
	return longlist.FigurePolicies()
}

// PolicyCurves holds one per-update metric series per policy label.
type PolicyCurves struct {
	Labels []string
	Series map[string][]float64
}

// Figure8 returns cumulative I/O operations per update for each policy.
func (e *Env) Figure8() (PolicyCurves, error) {
	return e.policyCurves(func(m core.UpdateStats) float64 { return float64(m.CumOps) })
}

// Figure9 returns long-list utilization per update for each policy.
func (e *Env) Figure9() (PolicyCurves, error) {
	return e.policyCurves(func(m core.UpdateStats) float64 { return m.Utilization })
}

// Figure10 returns average read operations per long list for each policy.
func (e *Env) Figure10() (PolicyCurves, error) {
	return e.policyCurves(func(m core.UpdateStats) float64 { return m.AvgReadsPerList })
}

func (e *Env) policyCurves(metric func(core.UpdateStats) float64) (PolicyCurves, error) {
	out := PolicyCurves{Series: map[string][]float64{}}
	for _, p := range FigureCurvePolicies() {
		r, err := e.RunPolicy(p)
		if err != nil {
			return out, err
		}
		label := p.String()
		out.Labels = append(out.Labels, label)
		series := make([]float64, len(r.PerUpdate))
		for i, m := range r.PerUpdate {
			series[i] = metric(m)
		}
		out.Series[label] = series
	}
	return out, nil
}

// AllocRow is one row of Table 5 or Table 6: an allocation strategy
// evaluated on the final index.
type AllocRow struct {
	Alloc   longlist.Alloc
	K       float64
	Read    float64 // average reads per long list (Table 5 only; 1.0 for whole)
	Util    float64 // internal long-list utilization
	InPlace int64   // in-place updates performed
	Frac    float64 // fraction of possible in-place updates
}

// Table5 evaluates allocation strategies for the new style (paper Table 5).
// The constants follow the paper's table: two constant sizes, two block
// multiples, two proportional ratios.
func (e *Env) Table5() ([]AllocRow, error) {
	rows := []struct {
		alloc longlist.Alloc
		k     float64
	}{
		{longlist.AllocConstant, 500},
		{longlist.AllocConstant, 1000},
		{longlist.AllocBlock, 2},
		{longlist.AllocBlock, 4},
		{longlist.AllocProportional, 1.2},
		{longlist.AllocProportional, 1.5},
	}
	return e.allocRows(longlist.StyleNew, rows)
}

// Table6 evaluates allocation strategies for the whole style (paper Table
// 6). Read cost is always 1.0 for this style, so the interesting columns
// are utilization and the in-place fraction.
func (e *Env) Table6() ([]AllocRow, error) {
	rows := []struct {
		alloc longlist.Alloc
		k     float64
	}{
		{longlist.AllocConstant, 0},
		{longlist.AllocConstant, 500},
		{longlist.AllocConstant, 1000},
		{longlist.AllocBlock, 2},
		{longlist.AllocBlock, 4},
		{longlist.AllocBlock, 8},
		{longlist.AllocProportional, 1.1},
		{longlist.AllocProportional, 1.15},
		{longlist.AllocProportional, 1.2},
	}
	return e.allocRows(longlist.StyleWhole, rows)
}

func (e *Env) allocRows(style longlist.Style, specs []struct {
	alloc longlist.Alloc
	k     float64
}) ([]AllocRow, error) {
	var out []AllocRow
	for _, s := range specs {
		p := longlist.Policy{Style: style, Limit: longlist.LimitZ, Alloc: s.alloc, K: s.k}
		if s.alloc == longlist.AllocBlock && s.k < 1 {
			p.K = 1
		}
		r, err := e.RunPolicy(p)
		if err != nil {
			return nil, err
		}
		last := r.PerUpdate[len(r.PerUpdate)-1]
		stats := r.LongLists().Stats()
		out = append(out, AllocRow{
			Alloc:   s.alloc,
			K:       s.k,
			Read:    last.AvgReadsPerList,
			Util:    last.Utilization,
			InPlace: stats.InPlace,
			Frac:    stats.InPlaceFrac(),
		})
	}
	return out, nil
}

// SweepPoint is one point of the Figure 11/12 proportional-constant sweep.
type SweepPoint struct {
	K           float64
	Utilization float64
	InPlace     int64
}

// ProportionalSweep runs the Figure 11/12 sweep: the proportional constant
// k varied over [1, 4] for the given style (new or whole), with Limit = z.
func (e *Env) ProportionalSweep(style longlist.Style, ks []float64) ([]SweepPoint, error) {
	var out []SweepPoint
	for _, k := range ks {
		p := longlist.Policy{Style: style, Limit: longlist.LimitZ, Alloc: longlist.AllocProportional, K: k}
		r, err := e.RunPolicy(p)
		if err != nil {
			return nil, err
		}
		last := r.PerUpdate[len(r.PerUpdate)-1]
		out = append(out, SweepPoint{K: k, Utilization: last.Utilization, InPlace: r.LongLists().Stats().InPlace})
	}
	return out, nil
}

// FillReference returns the fill-style (e = 2) utilization and in-place
// count, the flat comparison line of Figures 11 and 12.
func (e *Env) FillReference() (SweepPoint, error) {
	r, err := e.RunPolicy(longlist.FillRecommended())
	if err != nil {
		return SweepPoint{}, err
	}
	last := r.PerUpdate[len(r.PerUpdate)-1]
	return SweepPoint{Utilization: last.Utilization, InPlace: r.LongLists().Stats().InPlace}, nil
}

// DefaultSweepKs is the k grid of Figures 11 and 12.
func DefaultSweepKs() []float64 {
	var ks []float64
	for k := 1.0; k <= 4.01; k += 0.25 {
		ks = append(ks, k)
	}
	return ks
}

// TimeCurves holds per-update execution times per policy label (Figure 14)
// and their cumulative sums (Figure 13).
type TimeCurves struct {
	Labels     []string
	PerUpdate  map[string][]time.Duration
	Cumulative map[string][]time.Duration
}

// Figures13And14 replays each figure policy's I/O trace on the disk timing
// model. The fill-0 policy is omitted, as in the paper ("our disks were not
// large enough to store the long lists for this policy").
func (e *Env) Figures13And14() (TimeCurves, error) {
	out := TimeCurves{
		PerUpdate:  map[string][]time.Duration{},
		Cumulative: map[string][]time.Duration{},
	}
	for _, p := range FigureCurvePolicies() {
		if p.Style == longlist.StyleFill && p.Limit == longlist.LimitZero {
			continue
		}
		r, err := e.RunPolicy(p)
		if err != nil {
			return out, err
		}
		res := e.Exercise(r, e.Params.Profile)
		label := p.String()
		out.Labels = append(out.Labels, label)
		per := make([]time.Duration, len(res.Batches))
		cum := make([]time.Duration, len(res.Batches))
		var sum time.Duration
		for i, b := range res.Batches {
			per[i] = b.Elapsed
			sum += b.Elapsed
			cum[i] = sum
		}
		out.PerUpdate[label] = per
		out.Cumulative[label] = cum
	}
	return out, nil
}

// DiskSweepPoint is one configuration of the extension experiment on disk
// count and speed.
type DiskSweepPoint struct {
	Disks   int
	Profile string
	Total   time.Duration
}

// ExtensionDiskSweep measures total build time for the recommended new-style
// policy while varying the number of disks and the disk generation,
// including the optical-disk case of the paper's extended version.
func (e *Env) ExtensionDiskSweep(diskCounts []int, profiles []disk.Profile) ([]DiskSweepPoint, error) {
	var out []DiskSweepPoint
	for _, n := range diskCounts {
		cfg := e.coreConfig(longlist.NewRecommended())
		cfg.Geometry.NumDisks = n
		r, err := e.runDisks(cfg)
		if err != nil {
			return nil, err
		}
		for _, prof := range profiles {
			res := e.Exercise(r, prof)
			out = append(out, DiskSweepPoint{Disks: n, Profile: prof.Name, Total: res.Total()})
		}
	}
	return out, nil
}

// ScalePoint is one database size of the scale-up extension.
type ScalePoint struct {
	Scale        float64
	Postings     int64
	Ops          int64
	Total        time.Duration
	LongLists    int
	Utilization  float64
	AvgReadsList float64
}

// ExtensionScaleSweep rebuilds the whole pipeline at several corpus scales
// while keeping the index parameters fixed — the paper's synthetic-database
// extrapolation, and its §7 observation that a fixed bucket configuration
// degrades as the database grows.
func ExtensionScaleSweep(base Params, scales []float64, policy longlist.Policy) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, s := range scales {
		p := base
		p.Corpus = p.Corpus.Scaled(s)
		env, err := NewEnv(p)
		if err != nil {
			return nil, err
		}
		r, err := env.RunPolicy(policy)
		if err != nil {
			return nil, err
		}
		res := env.Exercise(r, p.Profile)
		var postings int64
		for _, st := range env.stats {
			postings += st.Postings
		}
		last := r.PerUpdate[len(r.PerUpdate)-1]
		out = append(out, ScalePoint{
			Scale:        s,
			Postings:     postings,
			Ops:          last.CumOps,
			Total:        res.Total(),
			LongLists:    last.LongLists,
			Utilization:  last.Utilization,
			AvgReadsList: last.AvgReadsPerList,
		})
	}
	return out, nil
}

// RenderAllocTable renders Table 5/6 rows in the paper's layout.
func RenderAllocTable(title string, rows []AllocRow, withRead bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	if withRead {
		fmt.Fprintf(&b, "%-14s %6s %6s %6s %10s %6s\n", "Allocation", "k", "Read", "Util", "In-place", "Frac")
	} else {
		fmt.Fprintf(&b, "%-14s %6s %6s %10s %6s\n", "Allocation", "k", "Util", "In-place", "Frac")
	}
	for _, r := range rows {
		if withRead {
			fmt.Fprintf(&b, "%-14s %6g %6.2f %6.2f %10d %6.2f\n", r.Alloc, r.K, r.Read, r.Util, r.InPlace, r.Frac)
		} else {
			fmt.Fprintf(&b, "%-14s %6g %6.2f %10d %6.2f\n", r.Alloc, r.K, r.Util, r.InPlace, r.Frac)
		}
	}
	return b.String()
}

// RenderCurves renders per-update series as aligned columns (x = update
// number), the textual equivalent of the paper's figures.
func RenderCurves(title string, labels []string, series map[string][]float64, format string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-8s", title, "update")
	for _, l := range labels {
		fmt.Fprintf(&b, " %14s", l)
	}
	b.WriteString("\n")
	n := 0
	for _, l := range labels {
		if len(series[l]) > n {
			n = len(series[l])
		}
	}
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%-8d", i+1)
		for _, l := range labels {
			if i < len(series[l]) {
				fmt.Fprintf(&b, " "+format, series[l][i])
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// DurationsToSeconds converts time series for rendering.
func DurationsToSeconds(in map[string][]time.Duration) map[string][]float64 {
	out := make(map[string][]float64, len(in))
	for k, ds := range in {
		fs := make([]float64, len(ds))
		for i, d := range ds {
			fs[i] = d.Seconds()
		}
		out[k] = fs
	}
	return out
}
