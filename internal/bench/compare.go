package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// LoadResults reads a result file: the JSON objects cmd/bench -out
// appended, one per run.
func LoadResults(path string) ([]Result, error) {
	f, err := os.Open(path) //nolint:ioboundary // harness reads its own result files, not index data
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer f.Close()
	var out []Result
	dec := json.NewDecoder(f)
	for {
		var r Result
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: %s holds no results", path)
	}
	return out, nil
}

// Verdicts of a comparison row.
const (
	VerdictOK         = "ok"
	VerdictWorse      = "worse"
	VerdictUnresolved = "unresolved"
)

// Sample summarises one side's runs of one (workload, metric) pair.
type Sample struct {
	N                int
	Q1, Median, Q3   float64
	Min, Max, Spread float64 // Spread = (Q3-Q1)/|Median|
}

func summarise(xs []float64) Sample {
	q1, q2, q3 := quartiles(xs)
	s := Sample{N: len(xs), Q1: q1, Median: q2, Q3: q3, Min: slices.Min(xs), Max: slices.Max(xs)}
	if q2 != 0 {
		s.Spread = (q3 - q1) / math.Abs(q2)
	}
	return s
}

// Row is the comparison of one end-to-end metric on one workload.
type Row struct {
	Workload string
	Metric   Metric
	Base     Sample
	New      Sample
	// Worse is how much worse the new median is than the base median, as a
	// share of the base median, in the metric's own direction: positive is
	// worse whether the metric is better lower or better higher.
	Worse   float64
	Verdict string
}

// Compare judges new against base, one row per (workload, end-to-end
// metric) of the spec, using only untraced results. A pair is worse when
// the new median is worse than the base median by more than the metric's
// bound; it is unresolved — neither ok nor worse — when either side's
// quartile spread is wider than the bound and the two sides' runs overlap,
// because then the data cannot tell a regression from noise. A pair one
// side has no runs for is an error: the files do not describe the same
// benchmark.
func Compare(spec Spec, base, new []Result) ([]Row, error) {
	var rows []Row
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, n := collect(base, w.Name, m.Name), collect(new, w.Name, m.Name)
			if len(b) == 0 && len(n) == 0 {
				continue // workload not run on either side
			}
			if len(b) == 0 || len(n) == 0 {
				return nil, fmt.Errorf("bench: %s on %s: %d base runs, %d new runs", m.Name, w.Name, len(b), len(n))
			}
			r := Row{Workload: w.Name, Metric: m, Base: summarise(b), New: summarise(n)}
			if r.Base.Median != 0 {
				r.Worse = (r.New.Median - r.Base.Median) / math.Abs(r.Base.Median)
				if m.Better == "higher" {
					r.Worse = -r.Worse
				}
			}
			noisy := max(r.Base.Spread, r.New.Spread) > m.Bound
			overlap := r.New.Min <= r.Base.Max && r.Base.Min <= r.New.Max
			switch {
			case noisy && overlap:
				r.Verdict = VerdictUnresolved
			case r.Worse > m.Bound:
				r.Verdict = VerdictWorse
			default:
				r.Verdict = VerdictOK
			}
			rows = append(rows, r)
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("bench: the result files share no workload of the spec")
	}
	return rows, nil
}

func collect(results []Result, workload, metric string) []float64 {
	var xs []float64
	for _, r := range results {
		if r.Workload != workload || r.Trace {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// WriteRows prints the comparison table and returns how many rows are
// worse.
func WriteRows(w io.Writer, rows []Row) (worse int, err error) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase q1/median/q3 (n)\tnew q1/median/q3 (n)\tworse by\tbound\tverdict")
	for _, r := range rows {
		if r.Verdict == VerdictWorse {
			worse++
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g / %.5g / %.5g (%d)\t%.5g / %.5g / %.5g (%d)\t%+.2f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric.Name, r.Metric.Unit,
			r.Base.Q1, r.Base.Median, r.Base.Q3, r.Base.N,
			r.New.Q1, r.New.Median, r.New.Q3, r.New.N,
			100*r.Worse, 100*r.Metric.Bound, r.Verdict)
	}
	return worse, tw.Flush()
}
