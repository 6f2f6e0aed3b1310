package experiments

import (
	"strings"
	"testing"

	"dualindex/internal/disk"
	"dualindex/internal/longlist"
)

// quickEnv is shared across tests: the pipeline is deterministic, and
// policy runs are memoised inside.
var quickEnvCache *Env

func quickEnv(t *testing.T) *Env {
	t.Helper()
	if quickEnvCache != nil {
		return quickEnvCache
	}
	env, err := NewEnv(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	quickEnvCache = env
	return env
}

func TestTable1Shape(t *testing.T) {
	s := quickEnv(t).Table1()
	if s.Documents == 0 || s.TotalWords == 0 || s.TotalPostings == 0 {
		t.Fatalf("empty stats: %+v", s)
	}
	// The full-scale corpus reaches ≈0.9 (checked in the corpus package);
	// the quick corpus is much smaller and concentrates less.
	if s.FrequentShare < 0.55 {
		t.Errorf("frequent share %.2f: corpus not skewed enough", s.FrequentShare)
	}
}

func TestTable3Sample(t *testing.T) {
	rows := quickEnv(t).Table3(6)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Word <= rows[i-1].Word {
			t.Fatal("sample not sorted by word")
		}
	}
}

func TestFigure1Animation(t *testing.T) {
	samples, err := quickEnv(t).Figure1(3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 50 {
		t.Fatalf("only %d samples", len(samples))
	}
	// Figure 1's qualitative content: postings dominate words, the bucket
	// fills, and at least one eviction (downward spike) appears.
	sawDrop := false
	for i := 1; i < len(samples); i++ {
		prev := samples[i-1].Words + samples[i-1].Postings
		cur := samples[i].Words + samples[i].Postings
		if cur < prev {
			sawDrop = true
			break
		}
	}
	if !sawDrop {
		t.Error("no eviction spike in the animation")
	}
	last := samples[len(samples)-1]
	if last.Postings <= last.Words {
		t.Errorf("postings (%d) should exceed words (%d)", last.Postings, last.Words)
	}
}

func TestFigure7Shape(t *testing.T) {
	stats := quickEnv(t).Figure7()
	if len(stats) != quickParams().Corpus.Days {
		t.Fatalf("updates = %d", len(stats))
	}
	nf0, _, lf0 := stats[0].Fractions()
	if nf0 != 1 || lf0 != 0 {
		t.Errorf("first update: new=%v long=%v", nf0, lf0)
	}
	// New-word fraction falls sharply; long-word fraction rises.
	nfEnd, bfEnd, lfEnd := stats[len(stats)-1].Fractions()
	if nfEnd > 0.5 {
		t.Errorf("final new fraction %v", nfEnd)
	}
	if lfEnd == 0 {
		t.Error("no long words by the final update")
	}
	if bfEnd == 0 {
		t.Error("no bucket words by the final update")
	}
}

func TestFigures8To10Orderings(t *testing.T) {
	env := quickEnv(t)
	f8, err := env.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	f9, err := env.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	f10, err := env.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	last := func(c PolicyCurves, label string) float64 {
		s := c.Series[label]
		return s[len(s)-1]
	}
	// Figure 8: increasing slope; in-place roughly doubles ops; whole is the
	// upper bound among single-chunk-write styles.
	for _, l := range f8.Labels {
		s := f8.Series[l]
		if s[len(s)-1] <= s[0] {
			t.Errorf("%s: cumulative ops do not grow", l)
		}
	}
	if !(last(f8, "new 0") < last(f8, "new z")) {
		t.Error("new z not above new 0")
	}
	ratio := last(f8, "new z") / last(f8, "new 0")
	if ratio < 1.5 || ratio > 2.6 {
		t.Errorf("in-place op ratio %.2f outside ~2x", ratio)
	}
	if !(last(f8, "whole 0") >= last(f8, "new z")) {
		t.Error("whole not the upper bound vs new z")
	}
	// Paper: whole and the in-place fill/new are within ~20%; allow 35% at
	// reduced scale.
	if r := last(f8, "whole 0") / last(f8, "fill z e=2"); r > 1.35 {
		t.Errorf("whole/fill-z op ratio %.2f too large", r)
	}

	// Figure 9: whole near 1; limit-0 styles collapse; in-place recovers.
	if last(f9, "whole 0") < 0.9 {
		t.Errorf("whole utilization %v", last(f9, "whole 0"))
	}
	if !(last(f9, "new 0") < last(f9, "new z") && last(f9, "fill 0 e=2") < last(f9, "fill z e=2")) {
		t.Error("utilization ordering broken")
	}
	if last(f9, "new 0") > 0.5 {
		t.Errorf("new 0 utilization %v did not collapse", last(f9, "new 0"))
	}

	// Figure 10: whole = 1 read; fill z beats new z; limit-0 worst.
	if last(f10, "whole 0") != 1 {
		t.Errorf("whole reads %v", last(f10, "whole 0"))
	}
	if !(last(f10, "new z") >= last(f10, "fill z e=2")) {
		t.Errorf("fill z (%v) should read no worse than new z (%v)",
			last(f10, "fill z e=2"), last(f10, "new z"))
	}
	if !(last(f10, "new 0") >= last(f10, "new z")) {
		t.Error("new 0 should read worst")
	}
}

func TestTables5And6(t *testing.T) {
	env := quickEnv(t)
	t5, err := env.Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t5) != 6 {
		t.Fatalf("table 5 rows = %d", len(t5))
	}
	for _, r := range t5 {
		if r.Util <= 0 || r.Util > 1 || r.Read < 1 || r.Frac < 0 || r.Frac > 1 {
			t.Errorf("implausible row %+v", r)
		}
	}
	t6, err := env.Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(t6) != 9 {
		t.Fatalf("table 6 rows = %d", len(t6))
	}
	for _, r := range t6 {
		if r.Read != 1.0 {
			t.Errorf("whole style read %v != 1", r.Read)
		}
	}
	// Paper's conclusion: larger reserved space → more in-place updates,
	// lower utilization (within one strategy family).
	if !(t5[1].InPlace >= t5[0].InPlace && t5[1].Util <= t5[0].Util) {
		t.Errorf("constant 1000 vs 500 trade-off broken: %+v vs %+v", t5[1], t5[0])
	}
	// k = 1.2 vs 1.5 are close; the utilization ordering is noisy at small
	// scale, but more reserved space must never reduce in-place updates.
	if t5[5].InPlace < t5[4].InPlace {
		t.Errorf("proportional 1.5 vs 1.2 trade-off broken: %+v vs %+v", t5[5], t5[4])
	}
	// Rendering includes every strategy name.
	text := RenderAllocTable("Table 5", t5, true)
	for _, want := range []string{"constant", "block", "proportional"} {
		if !strings.Contains(text, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestProportionalSweepTradeoff(t *testing.T) {
	env := quickEnv(t)
	ks := []float64{1.0, 1.5, 2.0, 3.0, 4.0}
	for _, style := range []longlist.Style{longlist.StyleNew, longlist.StyleWhole} {
		pts, err := env.ProportionalSweep(style, ks)
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != len(ks) {
			t.Fatalf("points = %d", len(pts))
		}
		// Figure 11: utilization falls as k rises (ends of the sweep).
		if !(pts[len(pts)-1].Utilization < pts[0].Utilization) {
			t.Errorf("%v: utilization did not fall: %v → %v", style, pts[0].Utilization, pts[len(pts)-1].Utilization)
		}
		// Figure 12: in-place updates rise with k.
		if !(pts[len(pts)-1].InPlace > pts[0].InPlace) {
			t.Errorf("%v: in-place did not rise", style)
		}
	}
	ref, err := env.FillReference()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Utilization <= 0 || ref.InPlace <= 0 {
		t.Errorf("fill reference empty: %+v", ref)
	}
	if ks := DefaultSweepKs(); ks[0] != 1.0 || ks[len(ks)-1] != 4.0 {
		t.Errorf("sweep grid: %v", ks)
	}
}

func TestFigures13And14Orderings(t *testing.T) {
	env := quickEnv(t)
	tc, err := env.Figures13And14()
	if err != nil {
		t.Fatal(err)
	}
	// fill 0 is omitted, as in the paper.
	for _, l := range tc.Labels {
		if l == "fill 0 e=2" {
			t.Error("fill 0 should be omitted from the timing figures")
		}
	}
	total := func(label string) float64 {
		c := tc.Cumulative[label]
		return c[len(c)-1].Seconds()
	}
	// Figure 13 orderings: new 0 fastest (sequential writes coalesce);
	// whole 0 slowest; whole z faster than whole 0.
	for _, l := range tc.Labels {
		if l != "new 0" && total(l) < total("new 0") {
			t.Errorf("%s (%.2fs) beat new 0 (%.2fs)", l, total(l), total("new 0"))
		}
	}
	if !(total("whole 0") >= total("whole z")) {
		t.Errorf("whole 0 (%v) not slower than whole z (%v)", total("whole 0"), total("whole z"))
	}
	for _, l := range tc.Labels {
		if l != "whole 0" && total(l) > total("whole 0") {
			t.Errorf("%s (%.2fs) slower than whole 0 (%.2fs)", l, total(l), total("whole 0"))
		}
	}
	// The time spread exceeds the op spread (coalescing helps new 0 more).
	f8, err := env.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	lastOps := func(label string) float64 {
		s := f8.Series[label]
		return s[len(s)-1]
	}
	opSpread := lastOps("whole 0") / lastOps("new 0")
	timeSpread := total("whole 0") / total("new 0")
	if timeSpread <= opSpread {
		t.Errorf("time spread %.2f not larger than op spread %.2f", timeSpread, opSpread)
	}
}

func TestExtensionDiskSweep(t *testing.T) {
	env := quickEnv(t)
	pts, err := env.ExtensionDiskSweep([]int{1, 2, 4}, []disk.Profile{disk.Seagate1993(), disk.FastSCSI1995()})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	get := func(disks int, profile string) float64 {
		for _, p := range pts {
			if p.Disks == disks && strings.Contains(p.Profile, profile) {
				return p.Total.Seconds()
			}
		}
		t.Fatalf("missing point %d/%s", disks, profile)
		return 0
	}
	// More disks → faster; faster disks → faster.
	if !(get(4, "seagate") < get(1, "seagate")) {
		t.Error("adding disks did not speed up the build")
	}
	if !(get(2, "fast-scsi") < get(2, "seagate")) {
		t.Error("faster disks did not speed up the build")
	}
}

func TestExtensionScaleSweep(t *testing.T) {
	base := quickParams()
	base.Corpus.Days = 12
	pts, err := ExtensionScaleSweep(base, []float64{0.5, 1.0}, longlist.NewRecommended())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if !(pts[1].Postings > pts[0].Postings && pts[1].Ops > pts[0].Ops && pts[1].Total > pts[0].Total) {
		t.Errorf("scale-up did not scale: %+v", pts)
	}
}

func TestRenderCurves(t *testing.T) {
	text := RenderCurves("Figure X", []string{"a", "b"},
		map[string][]float64{"a": {1, 2}, "b": {3}}, "%14.1f")
	if !strings.Contains(text, "Figure X") || !strings.Contains(text, "-") {
		t.Errorf("render output:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(text), "\n")
	if len(lines) != 4 { // title, header, 2 rows
		t.Errorf("lines = %d:\n%s", len(lines), text)
	}
}

func TestAblationAllocators(t *testing.T) {
	rows, err := quickEnv(t).AblationAllocators()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[string]AllocatorRow{}
	for _, r := range rows {
		byKey[r.Policy+"/"+r.Allocator] = r
	}
	for _, pol := range []string{"new z proportional 2", "whole z proportional 1.2"} {
		ff, fok := byKey[pol+"/first-fit"]
		bd, bok := byKey[pol+"/buddy"]
		if !fok || !bok {
			t.Fatalf("missing rows for %s: %v", pol, byKey)
		}
		// The allocator does not change the I/O operation count or the
		// list-internal utilization — only where chunks land.
		if ff.Ops != bd.Ops {
			t.Errorf("%s: ops differ %d vs %d", pol, ff.Ops, bd.Ops)
		}
		if ff.ListUtil != bd.ListUtil {
			t.Errorf("%s: list util differ %v vs %v", pol, ff.ListUtil, bd.ListUtil)
		}
		// The paper's expectation: buddy's space utilization is lower.
		if bd.DiskUtil >= ff.DiskUtil {
			t.Errorf("%s: buddy disk util %.3f not below first-fit %.3f", pol, bd.DiskUtil, ff.DiskUtil)
		}
	}
}

func TestAblationAdaptive(t *testing.T) {
	rows, err := quickEnv(t).AblationAdaptive()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := map[string]AdaptiveRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	// For the new style, adaptive K=1 is definitionally the same reservation
	// as proportional k=2 (x + 1·x): every metric must coincide.
	a, p := byPolicy["new z adaptive 1"], byPolicy["new z proportional 2"]
	if a.Ops != p.Ops || a.Util != p.Util || a.InPlace != p.InPlace {
		t.Errorf("adaptive 1 != proportional 2 for new style: %+v vs %+v", a, p)
	}
	// For the whole style, adaptive reserves one update's worth instead of a
	// fixed fraction of the whole list. At full scale it beats proportional
	// utilization (see EXPERIMENTS.md); at quick scale lists are short
	// enough that one update is a comparable fraction, so only require it
	// to stay in the same band.
	wa, wp := byPolicy["whole z adaptive 1"], byPolicy["whole z proportional 1.2"]
	if wa.Util < wp.Util*0.9 {
		t.Errorf("whole adaptive util %.3f far below proportional %.3f", wa.Util, wp.Util)
	}
	if wa.Reads != 1 || wp.Reads != 1 {
		t.Error("whole style read guarantee violated")
	}
}

func TestExtensionRebalance(t *testing.T) {
	pts, err := quickEnv(t).ExtensionRebalance(0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Rebalanced || !pts[1].Rebalanced {
		t.Fatalf("points = %+v", pts)
	}
	fixed, grown := pts[0], pts[1]
	// Growing the bucket space keeps more words short (fewer long lists)
	// and leaves the buckets less loaded.
	if grown.LongLists >= fixed.LongLists {
		t.Errorf("rebalancing did not reduce long lists: %d vs %d", grown.LongLists, fixed.LongLists)
	}
	if grown.LoadFactor >= fixed.LoadFactor {
		t.Errorf("rebalancing did not reduce load: %v vs %v", grown.LoadFactor, fixed.LoadFactor)
	}
	if grown.BucketWords <= fixed.BucketWords {
		t.Errorf("rebalancing did not keep more words short: %d vs %d", grown.BucketWords, fixed.BucketWords)
	}
}

func TestQueryWorkloads(t *testing.T) {
	rows, err := quickEnv(t).QueryWorkloads(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := map[string]QueryWorkloadRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
		// The paper's §5.2.1 premise: boolean query words mostly live in
		// buckets; vector queries hit long lists heavily.
		if r.BooleanBucketHits < 0.8 {
			t.Errorf("%s: boolean bucket-hit fraction %.2f too low", r.Policy, r.BooleanBucketHits)
		}
		if r.VectorReads <= r.BooleanReads {
			t.Errorf("%s: vector queries (%f) not costlier than boolean (%f)",
				r.Policy, r.VectorReads, r.BooleanReads)
		}
	}
	// The whole style minimises vector query cost; new 0 maximises it.
	if byPolicy["whole z proportional 1.2"].VectorReads >= byPolicy["new 0"].VectorReads {
		t.Errorf("whole (%f) not cheaper than new 0 (%f) for vector queries",
			byPolicy["whole z proportional 1.2"].VectorReads, byPolicy["new 0"].VectorReads)
	}
}

func TestCompressionStudy(t *testing.T) {
	rows, err := quickEnv(t).CompressionStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byCodec := map[string]CompressionRow{}
	for _, r := range rows {
		byCodec[r.Codec] = r
		if r.Bytes <= 0 || r.BytesPerPosting <= 0 || r.ImpliedBlockPosting <= 0 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	if byCodec["fixed-8"].BytesPerPosting != 8 {
		t.Errorf("fixed codec %v bytes/posting", byCodec["fixed-8"].BytesPerPosting)
	}
	// The compression hierarchy the literature reports: golomb < varint < fixed.
	if !(byCodec["golomb"].Bytes < byCodec["varint-delta"].Bytes &&
		byCodec["varint-delta"].Bytes < byCodec["fixed-8"].Bytes) {
		t.Errorf("codec ordering broken: %+v", rows)
	}
}

func TestQueryTimeStudy(t *testing.T) {
	rows, err := quickEnv(t).QueryTimeStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := map[string]QueryTimeRow{}
	for _, r := range rows {
		byPolicy[r.Policy] = r
		if r.AvgLatency <= 0 || r.Top10Latency <= 0 || r.AvgDisksTouched < 1 {
			t.Errorf("degenerate row %+v", r)
		}
	}
	// whole touches exactly one disk per list and has the lowest average
	// latency among the non-striped layouts; new 0 is the slowest.
	whole := byPolicy["whole z proportional 1.2"]
	if whole.AvgDisksTouched != 1 {
		t.Errorf("whole disks/list = %v", whole.AvgDisksTouched)
	}
	if byPolicy["new 0"].AvgLatency <= whole.AvgLatency {
		t.Error("new 0 not slower than whole")
	}
	if byPolicy["new 0"].AvgDisksTouched <= whole.AvgDisksTouched {
		t.Error("new 0 should fan out to more disks")
	}
}

func TestMotivation(t *testing.T) {
	rows, err := quickEnv(t).Motivation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byRegime := map[string]MotivationRow{}
	for _, r := range rows {
		byRegime[r.Regime] = r
	}
	weekly := byRegime["rebuild weekly"]
	daily := byRegime["rebuild daily"]
	incr := byRegime["incremental new z proportional 2"]
	// The paper's introduction, quantified: the weekend rebuild amortises
	// (cheapest in total) but is a week stale; rebuilding daily for
	// freshness costs more than updating in place, which is both cheaper
	// and immediately searchable.
	if weekly.Total >= daily.Total {
		t.Errorf("weekly (%v) not cheaper than daily (%v)", weekly.Total, daily.Total)
	}
	if daily.Total <= incr.Total {
		t.Errorf("daily rebuild (%v) not costlier than incremental (%v)", daily.Total, incr.Total)
	}
	if incr.StalenessBatches != 0 || weekly.StalenessBatches != 7 {
		t.Errorf("staleness wrong: %d / %d", incr.StalenessBatches, weekly.StalenessBatches)
	}
	if weekly.ReadsPerList != 1 || weekly.Utilization < 0.9 {
		t.Errorf("rebuild layout not perfect: %+v", weekly)
	}
}

func TestEnvFullyDeterministic(t *testing.T) {
	// Two independent environments with the same parameters must agree on
	// every curve — the property that makes the figures reproducible.
	a, err := NewEnv(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEnv(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	fa, err := a.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range fa.Labels {
		sa, sb := fa.Series[l], fb.Series[l]
		if len(sa) != len(sb) {
			t.Fatalf("%s: lengths differ", l)
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatalf("%s: diverges at update %d: %v vs %v", l, i, sa[i], sb[i])
			}
		}
	}
	ta, err := a.Figures13And14()
	if err != nil {
		t.Fatal(err)
	}
	tb, err := b.Figures13And14()
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range ta.Labels {
		ca, cb := ta.Cumulative[l], tb.Cumulative[l]
		if ca[len(ca)-1] != cb[len(cb)-1] {
			t.Fatalf("%s: timings diverge: %v vs %v", l, ca[len(ca)-1], cb[len(cb)-1])
		}
	}
}

// quickParams is a fast configuration for tests: the same shape at a
// fraction of the volume.
func quickParams() Params {
	p := DefaultParams().Scaled(0.15)
	p.Corpus.Days = 30
	return p
}
