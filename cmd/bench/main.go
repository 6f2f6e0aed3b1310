// Command bench is the repository's one benchmark command. It runs the
// workloads of internal/bench and prints every metric by name with its
// unit; the last line of standard output is the machine-readable result.
//
//	go run ./cmd/bench [-workload w] [-seed n] [-seconds n] [-scale f] [-trace 0|1] [-spans f] [-out f]
//	go run ./cmd/bench -compare base.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"dualindex/internal/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, one after another)")
		seed     = flag.Int64("seed", 1, "seed for the corpus and the query generator")
		seconds  = flag.Int("seconds", bench.CalibratedSeconds, "measured seconds the work is sized for")
		scale    = flag.Float64("scale", 1, "extra factor on document and query volume")
		trace    = flag.Int("trace", 0, "0: untraced repetitions, end-to-end metrics; 1: traced pass and layer probes, per-layer metrics")
		spans    = flag.String("spans", "", "with -trace 1: write the traced pass's spans here as JSON lines")
		out      = flag.String("out", "", "append the full result (environment, counts, metrics) to this file as one JSON line")
		tmp      = flag.String("tmp", ".bench_tmp", "directory index files are staged in (removed afterwards)")
		codec    = flag.String("codec", "", "override the long-list codec; only to reproduce why the benchmark avoids varint and golomb")
		spec     = flag.String("spec", "BENCHMARK.json", "metric names, units, directions and bounds (for -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: bench -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		os.Exit(runCompare(*spec, flag.Args()))
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, w := range bench.Workloads() {
			names = append(names, w.Name)
		}
	}
	status := 0
	for _, name := range names {
		res, err := bench.Run(bench.Config{
			Workload: name, Seed: *seed, Seconds: *seconds, Scale: *scale,
			Trace: *trace != 0, TmpDir: *tmp, SpansPath: *spans, Codec: *codec,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(2)
			}
		}
		printResult(res)
		if !res.Correct {
			status = 1
		}
	}
	os.Exit(status)
}

func printResult(res *bench.Result) {
	fmt.Printf("workload %s  seed %d  trace %v\n", res.Workload, res.Seed, res.Trace)
	for _, k := range sortedKeys(res.Env) {
		fmt.Printf("  env %-12s %s\n", k, res.Env[k])
	}
	for _, n := range sortedKeys(res.Metrics) {
		v := res.Metrics[n]
		fmt.Printf("  %-44s %16.6g %s\n", n, v.Value, v.Unit)
	}
	if len(res.RepSeconds) > 0 {
		fmt.Printf("  repetitions %.2f s; per repetition by call:", res.RepSeconds)
		for _, k := range sortedKeys(res.KindSeconds) {
			fmt.Printf(" %s %.2f", k, res.KindSeconds[k])
		}
		fmt.Println()
	}
	fmt.Printf("  ops_attempted %d  ops_failed %d\n", res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Printf("  FAILED %s\n", f)
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   bench.Metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func appendResult(path string, res *bench.Result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCompare prints one row per (workload, end-to-end metric) and returns
// the exit status: 1 if any row is worse, 2 if the files cannot be compared.
func runCompare(specPath string, args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench -compare base.json new.json")
		return 2
	}
	spec, err := bench.LoadSpec(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var sides [2][]bench.Result
	for i, path := range args {
		if sides[i], err = bench.LoadResults(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	rows, err := bench.Compare(spec, sides[0], sides[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	worse, err := bench.WriteRows(os.Stdout, rows)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if worse > 0 {
		fmt.Printf("%d of %d pairs are worse than their bound\n", worse, len(rows))
		return 1
	}
	return 0
}
