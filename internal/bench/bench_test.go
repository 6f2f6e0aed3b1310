package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dualindex"
)

// testScale shrinks every workload to a few hundred documents: all four,
// twice untraced and once traced, run in a few seconds.
const testScale = 0.02

func loadRepoSpec(t *testing.T) Spec {
	t.Helper()
	spec, err := LoadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkNames asserts got holds exactly the metrics want names, each with
// its unit.
func checkNames(t *testing.T, got Metrics, want []Metric) {
	t.Helper()
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
		} else if v.Unit != m.Unit {
			t.Errorf("metric %s emitted in %q, BENCHMARK.json says %q", m.Name, v.Unit, m.Unit)
		}
	}
	for name := range got {
		if !slices.ContainsFunc(want, func(m Metric) bool { return m.Name == name }) {
			t.Errorf("metric %s emitted but not named in BENCHMARK.json", name)
		}
	}
}

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

func TestSpecMatchesHarness(t *testing.T) {
	spec := loadRepoSpec(t)
	if !reflect.DeepEqual(spec.Workloads, Workloads()) {
		t.Errorf("BENCHMARK.json workloads %+v, harness has %+v", spec.Workloads, Workloads())
	}
	if spec.RunSeconds != CalibratedSeconds {
		t.Errorf("run_seconds %d, harness calibrated for %d", spec.RunSeconds, CalibratedSeconds)
	}
	haveSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		haveSetup = haveSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !haveSetup {
		t.Error("no setup_s metric in s, better lower")
	}
}

// TestWorkloads runs every workload at test scale, untraced and then traced
// on one seed. Every name in BENCHMARK.json must be emitted with its
// unit and nothing else; counts must repeat exactly (Run itself fails the
// result if they differ between repetitions; here the two runs must agree
// too); nothing may be left in, or written outside, the temp directory.
func TestWorkloads(t *testing.T) {
	spec := loadRepoSpec(t)
	here := listDir(t, ".")
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			tmp := t.TempDir()
			cfg := Config{Workload: w.Name, Seed: 7, Scale: testScale, TmpDir: tmp}
			first, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !first.Correct || first.Failed != 0 || first.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", first.Attempted, first.Failed, first.Failures)
			}
			checkNames(t, first.Metrics, spec.EndToEnd)
			for name, v := range first.Metrics {
				if v.Value <= 0 {
					t.Errorf("%s = %v; end-to-end metrics are never zero", name, v.Value)
				}
			}
			cfg.Trace = true
			cfg.SpansPath = filepath.Join(tmp, "spans.jsonl")
			traced, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !traced.Correct {
				t.Fatalf("traced run failed %d: %v", traced.Failed, traced.Failures)
			}
			// The traced run is a second, independent run of the same seed:
			// every exact number (and so io_ops_per_doc and
			// index_bytes_per_text_byte, which are ratios of them) must agree.
			if *first.Counts != *traced.Counts {
				t.Errorf("counts differ between two runs of one seed:\n%+v\n%+v", *first.Counts, *traced.Counts)
			}
			checkNames(t, traced.Metrics, spec.PerLayer)
			checkSpanFile(t, cfg.SpansPath)
			if left := listDir(t, tmp); !slices.Equal(left, []string{"spans.jsonl"}) {
				t.Errorf("left behind in the temp dir: %v", left)
			}
		})
	}
	if now := listDir(t, "."); !slices.Equal(here, now) {
		t.Errorf("package directory changed: %v -> %v", here, now)
	}
}

// checkSpanFile parses the span file and re-checks the invariant that makes
// self time meaningful: no parent's children outlast it.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []Span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
	if len(spans) < 10 {
		t.Fatalf("only %d spans", len(spans))
	}
	if _, err := selfTimes(spans); err != nil {
		t.Error(err)
	}
	var flushChildren int
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "core.") {
			flushChildren++
		}
	}
	if flushChildren == 0 {
		t.Error("no flush-phase child spans")
	}
}

func TestSelfTimesFlagsOverlongChildren(t *testing.T) {
	ok := []Span{{ID: 1, Start: 0, End: 100}, {ID: 2, Parent: 1, Start: 0, End: 60}, {ID: 3, Parent: 1, Start: 60, End: 90}}
	self, err := selfTimes(ok)
	if err != nil || self[1] != 10*time.Nanosecond {
		t.Errorf("self %v err %v, want parent self time 10ns", self[1], err)
	}
	bad := append(slices.Clone(ok), Span{ID: 4, Parent: 1, Start: 90, End: 120})
	if _, err := selfTimes(bad); err == nil {
		t.Error("children outlasting their parent not flagged")
	}
}

// TestOracleFlagsWrongAnswers seeds wrong answers of every kind into a
// correct pass and requires the oracle to flag each.
func TestOracleFlagsWrongAnswers(t *testing.T) {
	s, _, err := buildMixedLive(3, testScale)
	if err != nil {
		t.Fatal(err)
	}
	p := s.run(filepath.Join(t.TempDir(), "ix"), 0, len(s.ops), false)
	replay := func() int {
		q := *p
		q.failed, q.failures = 0, nil
		s.verify(newOracle(s.docs), &q)
		return q.failed
	}
	if p.failed != 0 || replay() != 0 {
		t.Fatalf("clean pass has failures: %v", p.failures)
	}
	find := func(k opKind) int {
		for i := range s.ops {
			if s.ops[i].kind == k && (k != opRank || len(p.ranked[i]) > 1) {
				return i
			}
		}
		t.Fatalf("script has no usable %s op", opNames[k])
		return -1
	}
	for _, k := range []opKind{opBool, opPhrase, opProbe} {
		i := find(k)
		saved := p.ans[i]
		p.ans[i].hash++ // same count, one DocID off
		if replay() != 1 {
			t.Errorf("wrong %s answer not flagged", opNames[k])
		}
		p.ans[i] = answer{n: saved.n + 1, hash: saved.hash} // one document too many
		if replay() != 1 {
			t.Errorf("%s answer with an extra document not flagged", opNames[k])
		}
		p.ans[i] = saved
	}
	i := find(opRank)
	saved := slices.Clone(p.ranked[i])
	for name, corrupt := range map[string]func(){
		"rising scores":    func() { p.ranked[i][0], p.ranked[i][1] = p.ranked[i][1], p.ranked[i][0]; p.ranked[i][0].Score-- },
		"a foreign doc":    func() { p.ranked[i][0].Doc = 1 << 30 },
		"a repeated doc":   func() { p.ranked[i][1].Doc = p.ranked[i][0].Doc },
		"a missing match":  func() { p.ranked[i] = p.ranked[i][:len(p.ranked[i])-1] },
		"more than k hits": func() { p.ranked[i] = append(p.ranked[i], make([]dualindex.Match, rankK)...) },
	} {
		corrupt()
		if replay() != 1 {
			t.Errorf("ranked answer with %s not flagged", name)
		}
		p.ranked[i] = slices.Clone(saved)
	}
}

func TestCompare(t *testing.T) {
	spec, err := LoadSpec(filepath.Join("testdata", "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := LoadResults(filepath.Join("testdata", "base.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		file  string
		want  map[string]string // "workload/metric" -> verdict; unnamed pairs are ok
		worse int
	}{
		{"new_same.json", nil, 0},
		{"new_worse.json", map[string]string{"w1/lat_ms": VerdictWorse}, 1},
		{"new_noisy.json", map[string]string{"w1/lat_ms": VerdictUnresolved, "w2/rate": VerdictWorse}, 1},
		{"new_noisy_better.json", nil, 0},
	} {
		t.Run(tc.file, func(t *testing.T) {
			changed, err := LoadResults(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			rows, err := Compare(spec, base, changed)
			if err != nil {
				t.Fatal(err)
			}
			if want := len(spec.Workloads) * len(spec.EndToEnd); len(rows) != want {
				t.Fatalf("%d rows, want one per (workload, metric) = %d", len(rows), want)
			}
			for _, r := range rows {
				want := VerdictOK
				if v, ok := tc.want[r.Workload+"/"+r.Metric.Name]; ok {
					want = v
				}
				if r.Verdict != want {
					t.Errorf("%s/%s: verdict %s, want %s (worse by %.3f, spreads %.3f/%.3f)",
						r.Workload, r.Metric.Name, r.Verdict, want, r.Worse, r.Base.Spread, r.New.Spread)
				}
				if r.Base.N != 5 || r.New.N != 5 {
					t.Errorf("%s/%s: n = %d/%d, want 5/5 (traced results must be ignored)", r.Workload, r.Metric.Name, r.Base.N, r.New.N)
				}
			}
			var sb strings.Builder
			worse, err := WriteRows(&sb, rows)
			if err != nil || worse != tc.worse {
				t.Errorf("WriteRows: %d worse, err %v; want %d", worse, err, tc.worse)
			}
			if got := strings.Count(sb.String(), "\n"); got != len(rows)+1 {
				t.Errorf("table has %d lines, want header + %d rows", got, len(rows))
			}
		})
	}
	if _, err := Compare(spec, base, base[:1]); err == nil {
		t.Error("comparing against a file missing a workload did not fail")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}
