// Package bench is the repository's one benchmark harness: four long
// workloads over the internal/corpus News stream, driven through the
// engine's public API from outside, every answer checked against a naive
// model, end-to-end metrics from untraced repetitions and per-layer
// metrics from a separate traced pass plus layer probes. cmd/bench is its
// command; BENCHMARK.json fixes the metric names, units, directions and
// bounds; README.md in this directory says what each number means.
package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Repetitions is how many times a workload's timed region runs, each on
// fresh engine state, in one untraced invocation.
const Repetitions = 3

// CalibratedSeconds is the -seconds value the workload sizes in
// workloads.go were calibrated for (BENCHMARK.json's run_seconds): at that
// value the three timed repetitions of a workload add up to about that
// many seconds on the two-core reference sandbox.
const CalibratedSeconds = 20

// Config selects one run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds and Scale size the work. The op script is laid out before
	// anything is timed — that is what makes counts repeat exactly — so a
	// run cannot stop on a clock; instead the document and query volumes
	// scale by Scale × Seconds/CalibratedSeconds.
	Seconds int
	Scale   float64
	// Trace selects the traced pass and layer probes (per-layer metrics)
	// instead of the three untraced repetitions (end-to-end metrics).
	Trace bool
	// TmpDir is where index directories are staged; everything created
	// under it is removed before Run returns.
	TmpDir string
	// SpansPath, with Trace, receives the traced pass's spans as JSON lines.
	SpansPath string
	// Codec overrides the long-list codec ("" = raw, what the benchmark
	// measures). It exists only to reproduce the failures that keep the
	// compressing codecs out of the workloads; see README.
	Codec string
}

// Result is one run's outcome.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Env       map[string]string `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   Metrics           `json:"metrics"`
	// Counts are the exact numbers of the run (see README "Exact
	// metrics"): identical across repetitions or the run fails, and
	// identical across runs of one seed.
	Counts *counts `json:"counts,omitempty"`
	// RepSeconds is each repetition's wall-clock length and KindSeconds
	// where one repetition's time went, by engine call (per-op medians).
	RepSeconds  []float64          `json:"rep_seconds,omitempty"`
	KindSeconds map[string]float64 `json:"kind_seconds,omitempty"`
}

// Run executes one workload and returns its metrics. An error means the
// harness could not run (bad config, staging failure); engine failures and
// wrong answers are counted in Result.Failed instead.
func Run(cfg Config) (*Result, error) {
	w, err := findWorkload(cfg.Workload)
	if err != nil {
		return nil, err
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = CalibratedSeconds
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	size := cfg.Scale * float64(cfg.Seconds) / CalibratedSeconds
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pinnedProcs))

	if err := os.MkdirAll(cfg.TmpDir, 0o755); err != nil { //nolint:ioboundary // staging area for the engine's directories
		return nil, fmt.Errorf("bench: %w", err)
	}
	root, err := os.MkdirTemp(cfg.TmpDir, w.name+"-") //nolint:ioboundary // staging area for the engine's directories
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(root) //nolint:ioboundary // the harness removes what it staged

	res := &Result{Workload: w.name, Seed: cfg.Seed, Trace: cfg.Trace, Metrics: Metrics{}}
	res.Env = environment(cfg, root)

	// Set-up: everything before the first timed call. The script is laid
	// out once; the index state a repetition starts from is built once into
	// base and copied per repetition, so setup_s is the one-off part plus
	// the median of the per-repetition part. The oracle is not set-up: it
	// is built after the last timed call, so that the model's tens of
	// megabytes are not on the heap the collector walks during timing.
	setupStart := time.Now()
	s, batches, err := w.build(cfg.Seed, size)
	if err != nil {
		return nil, err
	}
	if cfg.Codec != "" {
		s.opts.Codec = cfg.Codec
	}
	base := filepath.Join(root, "base")
	var setupPass *pass
	if s.timedFrom > 0 {
		setupPass = s.run(base, 0, s.timedFrom, false)
	}
	setupOnce := time.Since(setupStart)
	// check verifies the set-up pass and one timed pass against a fresh
	// oracle, in script order.
	check := func(timed *pass) *oracle {
		model := newOracle(s.docs)
		if setupPass != nil {
			s.verify(model, setupPass)
			res.note(setupPass)
		}
		s.verify(model, timed)
		return model
	}

	st := stager{root: root}
	if setupPass != nil {
		st.base = base
	}

	if cfg.Trace {
		return res, s.traced(cfg, res, check, batches, st)
	}

	var passes []*pass
	stagings := make([]float64, 0, Repetitions)
	for r := 0; r < Repetitions; r++ {
		dir, staged, err := st.stage(fmt.Sprintf("rep%d", r))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		p := s.run(dir, s.timedFrom, len(s.ops), false)
		// The pass's own pre-Open heap baseline is set-up too.
		stagings = append(stagings, staged.Seconds()+p.started.Sub(t0).Seconds())
		res.RepSeconds = append(res.RepSeconds, time.Since(p.started).Seconds())
		st.remove(dir)
		passes = append(passes, p)
	}
	check(passes[0])
	for _, p := range passes {
		res.note(p)
	}
	for _, p := range passes[1:] {
		if err := s.sameAnswers(passes[0], p); err != nil {
			res.failf("%v", err)
		}
		if a, b := s.counts(passes[0]), s.counts(p); a != b {
			res.failf("counts differ between repetitions: %+v vs %+v", a, b)
		}
	}
	c := s.counts(passes[0])
	res.Counts = &c
	med := opMedians(passes)
	res.Metrics, err = s.endToEnd(passes, med, setupOnce.Seconds()+quantile(stagings, 0.5))
	if err != nil {
		return nil, err
	}
	res.KindSeconds = make(map[string]float64)
	for i := range med {
		res.KindSeconds[opNames[s.ops[s.timedFrom+i].kind]] += med[i].Seconds()
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// stager hands every pass its own index directory under root: empty, or a
// copy of the state the set-up ops built in base.
type stager struct{ root, base string }

func (st stager) stage(name string) (string, time.Duration, error) {
	t0 := time.Now()
	dir := filepath.Join(st.root, name)
	if st.base != "" {
		if err := copyDir(st.base, dir); err != nil {
			return "", 0, fmt.Errorf("bench: staging %s: %w", name, err)
		}
	}
	return dir, time.Since(t0), nil
}

func (st stager) remove(dir string) {
	os.RemoveAll(dir) //nolint:ioboundary // the harness removes what it staged
}

// note folds a pass's op count and failures into the result.
func (r *Result) note(p *pass) {
	r.Attempted += len(p.dur)
	r.Failed += p.failed
	for _, f := range p.failures {
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, f)
		}
	}
}

func (r *Result) failf(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}
