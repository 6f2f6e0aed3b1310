// Command experiments regenerates every table and figure of the paper's
// evaluation section from the synthetic corpus and the simulated disk
// subsystem, printing paper-style rows and series.
//
// Usage:
//
//	experiments -run all
//	experiments -run table1,figure8,figure13 -scale 0.5
//
// Paper artifacts: table1 table3 figure1 figure7 figure8 figure9 figure10
// table5 table6 figure11 figure12 figure13 figure14. Extensions and
// ablations: ext-disks ext-scale ext-buddy ext-adaptive ext-rebalance
// ext-queries ext-compression ext-querytime ext-rebuild. Use -list for
// descriptions, -out DIR to also write one file per artifact.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dualindex/internal/corpus"
	"dualindex/internal/disk"
	"dualindex/internal/experiments"
	"dualindex/internal/longlist"
)

type artifact struct {
	name string
	desc string
	run  func(io.Writer, *experiments.Env) error
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses the command line and generates the artifacts it asks for.
func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		runList = fs.String("run", "all", "comma-separated artifact list, or 'all'")
		scale   = fs.Float64("scale", 1.0, "corpus scale factor, positive")
		list    = fs.Bool("list", false, "list artifacts and exit")
		outDir  = fs.String("out", "", "also write each artifact's output to <out>/<name>.txt")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	arts := artifacts()
	if *list {
		for _, a := range arts {
			fmt.Printf("%-10s %s\n", a.name, a.desc)
		}
		return nil
	}
	want := map[string]bool{}
	all := *runList == "all"
	for _, n := range strings.Split(*runList, ",") {
		want[strings.TrimSpace(n)] = true
	}
	params, err := experiments.ScaledParams(*scale)
	if err != nil {
		return err
	}
	fmt.Printf("# Parameters: days=%d docs/day≈%d buckets=%d bucketsize=%d blockposting=%d disks=%d\n\n",
		params.Corpus.Days, params.Corpus.DocsPerDay, params.Buckets, params.BucketSize,
		params.BlockPosting, params.Geometry.NumDisks)
	start := time.Now()
	env, err := experiments.NewEnv(params)
	if err != nil {
		return err
	}
	fmt.Printf("# corpus + compute-buckets: %v\n\n", time.Since(start).Round(time.Millisecond))
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	for _, a := range arts {
		if !all && !want[a.name] {
			continue
		}
		t0 := time.Now()
		if err := runArtifact(a, env, *outDir); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		fmt.Printf("# %s completed in %v\n\n", a.name, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}

// runArtifact prints one artifact to stdout and, when outDir is set, to
// <outDir>/<name>.txt as well.
func runArtifact(a artifact, env *experiments.Env, outDir string) error {
	if outDir == "" {
		return a.run(os.Stdout, env)
	}
	f, err := os.Create(filepath.Join(outDir, a.name+".txt"))
	if err != nil {
		return err
	}
	// The runners print without checking each write; the buffered writer
	// keeps the first write error for Flush to report.
	bw := bufio.NewWriter(io.MultiWriter(os.Stdout, f))
	err = a.run(bw, env)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func artifacts() []artifact {
	return []artifact{
		{"table1", "News database statistics", runTable1},
		{"table3", "sample of a batch update", runTable3},
		{"figure1", "bucket animation (100-bucket system, bucket 3)", runFigure1},
		{"figure7", "fraction of words per update in each category", runFigure7},
		{"figure8", "cumulative I/O operations per policy", runFigure8},
		{"figure9", "long-list utilization per policy", runFigure9},
		{"figure10", "average read operations per long list", runFigure10},
		{"table5", "allocation strategies, new style", runTable5},
		{"table6", "allocation strategies, whole style", runTable6},
		{"figure11", "utilization vs proportional constant", runFigure11},
		{"figure12", "in-place updates vs proportional constant", runFigure12},
		{"figure13", "cumulative build time (disk model)", runFigure13},
		{"figure14", "time per update (disk model)", runFigure14},
		{"ext-disks", "extension: disk count and speed sweep", runExtDisks},
		{"ext-scale", "extension: database scale-up", runExtScale},
		{"ext-buddy", "ablation: first-fit vs buddy-system allocation", runExtBuddy},
		{"ext-adaptive", "ablation: adaptive vs proportional reserved space", runExtAdaptive},
		{"ext-rebalance", "extension: periodic bucket-space rebalancing", runExtRebalance},
		{"ext-queries", "extension: boolean vs vector query workload cost", runExtQueries},
		{"ext-compression", "extension: posting codecs and implied BlockPosting", runExtCompression},
		{"ext-querytime", "extension: modelled list-read latency and disk striping", runExtQueryTime},
		{"ext-rebuild", "baseline: periodic full reconstruction vs in-place updates", runExtRebuild},
	}
}

func runExtRebuild(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Baseline — full reconstruction (the traditional regime) vs in-place updates")
	rows, err := env.Motivation()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-38s %12s %12s %12s %8s\n", "regime", "total time", "staleness", "reads/list", "util")
	for _, r := range rows {
		fmt.Fprintf(w, "%-38s %11.1fs %9d day(s) %12.2f %8.2f\n",
			r.Regime, r.Total.Seconds(), r.StalenessBatches, r.ReadsPerList, r.Utilization)
	}
	return nil
}

func runExtQueryTime(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Extension — modelled long-list read latency (parallel disk array)")
	rows, err := env.QueryTimeStudy()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %12s %14s %14s\n", "policy", "avg latency", "top-10 latency", "disks/list")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %11.1fms %13.1fms %14.2f\n",
			r.Policy, float64(r.AvgLatency.Microseconds())/1000,
			float64(r.Top10Latency.Microseconds())/1000, r.AvgDisksTouched)
	}
	return nil
}

func runExtCompression(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Extension — posting compression and the implied BlockPosting parameter")
	rows, err := env.CompressionStudy()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %14s %16s %22s\n", "codec", "total bytes", "bytes/posting", "implied BlockPosting")
	for _, r := range rows {
		fmt.Fprintf(w, "%-14s %14d %16.2f %22d\n", r.Codec, r.Bytes, r.BytesPerPosting, r.ImpliedBlockPosting)
	}
	return nil
}

func runExtRebalance(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Extension — periodic bucket rebalancing (grow bucket space at 85% load)")
	pts, err := env.ExtensionRebalance(0.85)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %10s %12s %10s %10s %10s\n",
		"rebalanced", "longlists", "bucketwords", "load", "ops", "reads")
	for _, p := range pts {
		fmt.Fprintf(w, "%-12v %10d %12d %10.2f %10d %10.2f\n",
			p.Rebalanced, p.LongLists, p.BucketWords, p.LoadFactor, p.Ops, p.AvgReadsList)
	}
	return nil
}

func runExtBuddy(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Ablation — first-fit (paper) vs buddy system (related work)")
	rows, err := env.AblationAllocators()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %-10s %10s %10s %10s %10s\n",
		"policy", "allocator", "ops", "time", "list util", "disk util")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-10s %10d %9.1fs %10.3f %10.3f\n",
			r.Policy, r.Allocator, r.Ops, r.Time.Seconds(), r.ListUtil, r.DiskUtil)
	}
	return nil
}

func runExtAdaptive(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Ablation — adaptive reserved space vs the paper's proportional constants")
	rows, err := env.AblationAdaptive()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %10s %8s %8s %10s %6s\n", "policy", "ops", "util", "reads", "in-place", "frac")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %10d %8.3f %8.2f %10d %6.2f\n",
			r.Policy, r.Ops, r.Util, r.Reads, r.InPlace, r.Frac)
	}
	return nil
}

func runTable1(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Table 1 — statistics for the (synthetic) News text database")
	fmt.Fprint(w, env.Table1())
	return nil
}

func runTable3(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Table 3 — part of the first batch update (word, doc-occurrences)")
	for _, wc := range env.Table3(12) {
		fmt.Fprintf(w, "%s %d\n", corpus.WordString(wc.Word), wc.Count)
	}
	return nil
}

func runFigure1(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Figure 1 — animation of bucket 3 (words, postings, words+postings per change)")
	samples, err := env.Figure1(3, 2000)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %8s %10s %10s\n", "change", "words", "postings", "w+p")
	for i, s := range samples {
		if i%50 == 0 || i == len(samples)-1 {
			fmt.Fprintf(w, "%-8d %8d %10d %10d\n", i, s.Words, s.Postings, s.Words+s.Postings)
		}
	}
	return nil
}

func runFigure7(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Figure 7 — fraction of words per update in each category")
	stats := env.Figure7()
	fmt.Fprintf(w, "%-8s %10s %14s %12s\n", "update", "new words", "bucket words", "long words")
	for i, s := range stats {
		nf, bf, lf := s.Fractions()
		fmt.Fprintf(w, "%-8d %10.3f %14.3f %12.3f\n", i+1, nf, bf, lf)
	}
	return nil
}

func runFigure8(w io.Writer, env *experiments.Env) error {
	c, err := env.Figure8()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderCurves(
		"## Figure 8 — cumulative I/O operations needed to build the final index",
		c.Labels, c.Series, "%14.0f"))
	return nil
}

func runFigure9(w io.Writer, env *experiments.Env) error {
	c, err := env.Figure9()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderCurves(
		"## Figure 9 — long-list (internal) disk utilization",
		c.Labels, c.Series, "%14.3f"))
	return nil
}

func runFigure10(w io.Writer, env *experiments.Env) error {
	c, err := env.Figure10()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderCurves(
		"## Figure 10 — average read operations per long list",
		c.Labels, c.Series, "%14.2f"))
	return nil
}

func runTable5(w io.Writer, env *experiments.Env) error {
	rows, err := env.Table5()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderAllocTable(
		"## Table 5 — allocation strategies for the new style (final index)", rows, true))
	return nil
}

func runTable6(w io.Writer, env *experiments.Env) error {
	rows, err := env.Table6()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderAllocTable(
		"## Table 6 — allocation strategies for the whole style (final index)", rows, false))
	return nil
}

func runFigure11(w io.Writer, env *experiments.Env) error {
	return runSweep(w, env, "## Figure 11 — utilization vs proportional constant k", func(p experiments.SweepPoint) float64 {
		return p.Utilization
	}, "%10.3f")
}

func runFigure12(w io.Writer, env *experiments.Env) error {
	return runSweep(w, env, "## Figure 12 — cumulative in-place updates vs proportional constant k", func(p experiments.SweepPoint) float64 {
		return float64(p.InPlace)
	}, "%10.0f")
}

func runSweep(w io.Writer, env *experiments.Env, title string, metric func(experiments.SweepPoint) float64, format string) error {
	ks := experiments.DefaultSweepKs()
	newPts, err := env.ProportionalSweep(longlist.StyleNew, ks)
	if err != nil {
		return err
	}
	wholePts, err := env.ProportionalSweep(longlist.StyleWhole, ks)
	if err != nil {
		return err
	}
	fill, err := env.FillReference()
	if err != nil {
		return err
	}
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-6s %10s %10s %10s\n", "k", "new", "whole", "fill(e=2)")
	for i, k := range ks {
		fmt.Fprintf(w, "%-6.2f "+format+" "+format+" "+format+"\n",
			k, metric(newPts[i]), metric(wholePts[i]), metric(fill))
	}
	return nil
}

func runFigure13(w io.Writer, env *experiments.Env) error {
	tc, err := env.Figures13And14()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderCurves(
		"## Figure 13 — cumulative time (seconds) to build the final index",
		tc.Labels, experiments.DurationsToSeconds(tc.Cumulative), "%14.1f"))
	return nil
}

func runFigure14(w io.Writer, env *experiments.Env) error {
	tc, err := env.Figures13And14()
	if err != nil {
		return err
	}
	fmt.Fprint(w, experiments.RenderCurves(
		"## Figure 14 — time (seconds) per update",
		tc.Labels, experiments.DurationsToSeconds(tc.PerUpdate), "%14.1f"))
	return nil
}

func runExtDisks(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Extension — build time vs number of disks and disk generation (new z prop 2.0)")
	pts, err := env.ExtensionDiskSweep(
		[]int{1, 2, 4, 8},
		[]disk.Profile{disk.Seagate1993(), disk.FastSCSI1995(), disk.Optical1993()})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %-24s %12s\n", "disks", "profile", "total")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6d %-24s %12.1fs\n", p.Disks, p.Profile, p.Total.Seconds())
	}
	return nil
}

func runExtScale(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Extension — database scale-up (fixed index parameters, new z prop 2.0)")
	pts, err := experiments.ExtensionScaleSweep(env.Params, []float64{0.5, 1.0, 2.0}, longlist.NewRecommended())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-6s %12s %10s %10s %10s %8s %8s\n",
		"scale", "postings", "ops", "time", "longlists", "util", "reads")
	for _, p := range pts {
		fmt.Fprintf(w, "%-6.2f %12d %10d %9.1fs %10d %8.3f %8.2f\n",
			p.Scale, p.Postings, p.Ops, p.Total.Seconds(), p.LongLists, p.Utilization, p.AvgReadsList)
	}
	return nil
}

func runExtQueries(w io.Writer, env *experiments.Env) error {
	fmt.Fprintln(w, "## Extension — modelled query cost: boolean vs vector workloads (§5.2.1)")
	rows, err := env.QueryWorkloads(200)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-26s %14s %16s %14s\n",
		"policy", "boolean reads", "bucket-hit frac", "vector reads")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %14.2f %16.2f %14.1f\n",
			r.Policy, r.BooleanReads, r.BooleanBucketHits, r.VectorReads)
	}
	return nil
}
