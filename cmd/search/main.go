// Command search runs queries against an index built by cmd/indexer.
//
// Usage:
//
//	search -index idx/ -q 'incremental inverted lists' -k 10
//	search -index idx/ -q '"white mouse" and cat* or title:dog' -docs
//	search -index idx/ -q 'cat and dog' -scoring bm25
//	search -index idx/ "(cat and dog) or mouse"
//	search -index idx/ -vector -k 10 "words of a query document"
//	search -index idx/          # interactive: one query per line on stdin
//
// -q takes the unified query language (see the README's "Query language"
// section) and prints ranked results under -scoring; the legacy flags keep
// their original entry points and output.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"dualindex"
	"dualindex/internal/obshttp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("search: ")
	var (
		indexDir = flag.String("index", "idx", "index directory")
		unified  = flag.String("q", "", "unified-language query (phrases, and/or/not, near/k, title:/body:, prefix*); ranked output")
		scoring  = flag.String("scoring", "", "ranking model for -q and -vector: vector (default) or bm25")
		vector   = flag.Bool("vector", false, "vector-space ranking instead of boolean")
		k        = flag.Int("k", 10, "top-k results for ranked queries")
		phrase   = flag.Bool("phrase", false, "exact phrase query (requires an index built with documents kept)")
		near     = flag.Int("near", 0, "proximity window: treat the two query words as 'w1 within N words of w2'")
		docs     = flag.Bool("docs", false, "keep/load stored documents (enables -phrase and -near)")
		shards   = flag.Int("shards", 0, "index shards (0 adopts the index's manifest — the usual choice)")
		backend  = flag.String("backend", "", "block-store backend (empty adopts the index's manifest — the usual choice)")
		codec    = flag.String("codec", "", "long-list block codec (empty adopts the index's manifest — the usual choice)")
		metrics  = flag.String("metrics", "", "serve /metrics, /stats, /trace, /healthz and /debug/pprof on this address (e.g. localhost:6060); enables instrumentation")
		slow     = flag.Duration("slow", 0, "log queries slower than this duration (view on the -metrics endpoint's /slow)")
	)
	flag.Parse()

	opts := dualindex.Options{
		Dir:           *indexDir,
		Shards:        *shards,
		Backend:       *backend,
		Codec:         *codec,
		KeepDocuments: *docs || *phrase || *near > 0,
		Scoring:       *scoring,
		SlowQuery:     *slow,
	}
	if *metrics != "" {
		opts.Metrics = true
		opts.TraceBuffer = 4096
	}
	eng, err := dualindex.Open(opts)
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()
	if *metrics != "" {
		cfg := obshttp.Config{
			Registry: eng.Metrics(),
			Stats:    func() any { return eng.Stats() },
			ShardStats: func() []any {
				sts := eng.ShardStats()
				out := make([]any, len(sts))
				for i, st := range sts {
					out[i] = st
				}
				return out
			},
			Tracer:      eng.Tracer(),
			SlowQueries: func() any { return eng.SlowQueries() },
			Health: func() obshttp.HealthState {
				h := eng.Health()
				return obshttp.HealthState{Healthy: h.Healthy, Ready: h.Ready, Reasons: h.Reasons}
			},
		}
		go func() {
			if err := http.ListenAndServe(*metrics, obshttp.New(cfg)); err != nil {
				log.Printf("metrics endpoint: %v", err)
			}
		}()
	}

	if *unified != "" {
		if err := runUnified(eng, *unified, *k); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		q := strings.Join(flag.Args(), " ")
		switch {
		case *phrase:
			err = runPhrase(eng, q)
		case *near > 0:
			err = runNear(eng, flag.Args(), *near)
		default:
			err = runQuery(eng, q, *vector, *k)
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("enter queries, one per line (ctrl-D to exit):")
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" {
			continue
		}
		if err := runQuery(eng, q, *vector, *k); err != nil {
			fmt.Println("error:", err)
		}
	}
}

// runUnified evaluates one unified-language query and prints the ranked
// results with scores.
func runUnified(eng *dualindex.Engine, q string, k int) error {
	start := time.Now()
	matches, err := eng.Query(q, k)
	if err != nil {
		return err
	}
	fmt.Printf("%d matches in %v\n", len(matches), time.Since(start).Round(time.Microsecond))
	for i, m := range matches {
		fmt.Printf("%2d. doc %-8d score %.3f\n", i+1, m.Doc, m.Score)
	}
	return nil
}

func runPhrase(eng *dualindex.Engine, q string) error {
	docs, err := eng.SearchPhrase(q)
	if err != nil {
		return err
	}
	fmt.Printf("phrase %q: %d documents\n", q, len(docs))
	for _, d := range docs {
		fmt.Printf("doc %d\n", d)
	}
	return nil
}

func runNear(eng *dualindex.Engine, words []string, k int) error {
	if len(words) != 2 {
		return fmt.Errorf("-near takes exactly two words, got %d", len(words))
	}
	docs, err := eng.SearchNear(words[0], words[1], k)
	if err != nil {
		return err
	}
	fmt.Printf("%q within %d of %q: %d documents\n", words[0], k, words[1], len(docs))
	for _, d := range docs {
		fmt.Printf("doc %d\n", d)
	}
	return nil
}

func runQuery(eng *dualindex.Engine, q string, vector bool, k int) error {
	start := time.Now()
	if vector {
		matches, err := eng.SearchVector(q, k)
		if err != nil {
			return err
		}
		fmt.Printf("%d matches in %v\n", len(matches), time.Since(start).Round(time.Microsecond))
		for i, m := range matches {
			fmt.Printf("%2d. doc %-8d score %.3f\n", i+1, m.Doc, m.Score)
		}
		return nil
	}
	docs, err := eng.SearchBoolean(q)
	if err != nil {
		return err
	}
	fmt.Printf("%d matching documents in %v\n", len(docs), time.Since(start).Round(time.Microsecond))
	const maxShown = 20
	for i, d := range docs {
		if i == maxShown {
			fmt.Printf("... and %d more\n", len(docs)-maxShown)
			break
		}
		fmt.Printf("doc %d\n", d)
	}
	return nil
}
