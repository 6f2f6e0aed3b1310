// Command tracer materialises the paper's decoupled pipeline over real
// files: one invocation produces the exact I/O trace a policy generates
// (the compute-disks output, Figure 6), another replays a trace on the
// disk timing model (the exercise-disks process). Because the stages are
// connected by a file, a trace generated once can be exercised under many
// disk configurations, exactly how the paper varied its parameters.
//
// Usage:
//
//	tracer -make -policy fast-query -out trace.txt -scale 0.25
//	tracer -exercise trace.txt -profile optical -buffer 256
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"dualindex/internal/disk"
	"dualindex/internal/experiments"
	"dualindex/internal/longlist"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("tracer: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

// run parses the command line and runs one stage.
func run(args []string) error {
	fs := flag.NewFlagSet("tracer", flag.ExitOnError)
	var (
		mk       = fs.Bool("make", false, "generate a trace")
		out      = fs.String("out", "trace.txt", "trace output path (with -make)")
		policy   = fs.String("policy", "balanced", "fast-update | balanced | fast-query | extents (with -make)")
		scale    = fs.Float64("scale", 0.25, "corpus scale factor, positive (with -make)")
		exercise = fs.String("exercise", "", "trace file to replay on the timing model")
		profile  = fs.String("profile", "seagate", "seagate | fast | optical (with -exercise)")
		buffer   = fs.Int64("buffer", 256, "coalescing buffer in blocks, 0 or more (with -exercise)")
		perBatch = fs.Bool("per-batch", false, "print per-batch times (with -exercise)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *mk:
		return makeTrace(*out, *policy, *scale)
	case *exercise != "":
		return exerciseTrace(*exercise, *profile, *buffer, *perBatch)
	}
	return fmt.Errorf("pass -make or -exercise FILE (see -help)")
}

func policyByName(name string) (longlist.Policy, error) {
	switch name {
	case "fast-update":
		return longlist.UpdateOptimized(), nil
	case "balanced":
		return longlist.NewRecommended(), nil
	case "fast-query":
		return longlist.QueryOptimized(), nil
	case "extents":
		return longlist.FillRecommended(), nil
	}
	return longlist.Policy{}, fmt.Errorf("unknown policy %q", name)
}

func makeTrace(out, policyName string, scale float64) error {
	pol, err := policyByName(policyName)
	if err != nil {
		return err
	}
	params, err := experiments.ScaledParams(scale)
	if err != nil {
		return err
	}
	env, err := experiments.NewEnv(params)
	if err != nil {
		return err
	}
	res, err := env.RunPolicy(pol)
	if err != nil {
		return err
	}
	tr := res.Array().Trace()
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := tr.WriteText(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d operations in %d batches to %s (policy %s)\n",
		tr.Len(), tr.NumBatches(), out, pol)
	return nil
}

func profileByName(name string) (disk.Profile, error) {
	switch name {
	case "seagate":
		return disk.Seagate1993(), nil
	case "fast":
		return disk.FastSCSI1995(), nil
	case "optical":
		return disk.Optical1993(), nil
	}
	return disk.Profile{}, fmt.Errorf("unknown profile %q", name)
}

func exerciseTrace(path, profileName string, buffer int64, perBatch bool) error {
	if buffer < 0 {
		return fmt.Errorf("-buffer %d: the coalescing buffer cannot be negative", buffer)
	}
	prof, err := profileByName(profileName)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	tr, err := disk.ReadText(f)
	f.Close()
	if err != nil {
		return err
	}
	// Infer the geometry from the trace: the largest disk index and block
	// touched.
	geo := disk.DefaultGeometry()
	geo.NumDisks = 0
	for _, op := range tr.Ops() {
		if op.Disk+1 > geo.NumDisks {
			geo.NumDisks = op.Disk + 1
		}
		if op.Block+op.Count > geo.BlocksPerDisk {
			geo.BlocksPerDisk = op.Block + op.Count
		}
	}
	if geo.NumDisks == 0 {
		return fmt.Errorf("empty trace")
	}
	x := disk.NewExerciser(geo)
	x.Profile = prof
	x.BufferBlocks = buffer
	res := x.Run(tr)
	var sum time.Duration
	for i, b := range res.Batches {
		sum += b.Elapsed
		if perBatch {
			fmt.Printf("batch %3d: %8.2fs  (%d ops, %d after coalescing)\n",
				i, b.Elapsed.Seconds(), b.Ops, b.CoalescedOps)
		}
	}
	fmt.Printf("%d batches, %d operations, profile %s: total %.1fs\n",
		len(res.Batches), tr.Len(), prof.Name, sum.Seconds())
	return nil
}
