// Command search runs queries against an index built by cmd/indexer.
//
// Usage:
//
//	search -index idx/ -q 'incremental inverted lists' -k 10
//	search -index idx/ -q '"white mouse" and cat* or title:dog' -docs
//	search -index idx/ "(cat and dog) or mouse"
//	search -index idx/ -docs 'cat near/3 dog'
//	search -index idx/ -docs '"white mouse" or title:rates'
//	search -index idx/ -vector -k 10 "words of a query document"
//	search -index idx/          # interactive: one query per line on stdin
//
// -q prints ranked results. A query given as arguments (or on stdin) prints
// every matching document, unranked; it takes the same language except that
// terms are joined by "and"/"or" (a bare "cat dog" is a ranked bag: use -q).
// See the README's "Query language" section. Phrases, near/k and
// title:/body: need -docs.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses the command line, opens the index and answers the query (or
// each query read from stdin), printing to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	var (
		indexDir = fs.String("index", "idx", "index directory")
		unified  = fs.String("q", "", "unified-language query (phrases, and/or/not, near/k, title:/body:, prefix*); ranked output")
		vector   = fs.Bool("vector", false, "vector-space ranking instead of boolean")
		k        = fs.Int("k", 10, "top-k results for ranked queries")
		docs     = fs.Bool("docs", false, "keep/load stored documents (enables phrases, near/k and title:/body:)")
		shards   = fs.Int("shards", 0, "index shards (0 adopts the index's manifest — the usual choice)")
		backend  = fs.String("backend", "", "block-store backend (empty adopts the index's manifest — the usual choice)")
		codec    = fs.String("codec", "", "long-list block codec (empty adopts the index's manifest — the usual choice)")
		metrics  = fs.String("metrics", "", "serve /metrics, /stats, /trace, /healthz and /debug/pprof on this address (e.g. localhost:6060); enables instrumentation")
		slow     = fs.Duration("slow", 0, "log queries slower than this duration (view on the -metrics endpoint's /slow)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	opts := dualindex.Options{
		Dir:           *indexDir,
		Shards:        *shards,
		Backend:       *backend,
		Codec:         *codec,
		KeepDocuments: *docs,
		SlowQuery:     *slow,
	}
	if *metrics != "" {
		opts.Metrics = true
		opts.TraceBuffer = 4096
	}
	eng, err := dualindex.Open(opts)
	if err != nil {
		return err
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
		return runUnified(eng, out, *unified, *k)
	}
	if fs.NArg() > 0 {
		return runQuery(eng, out, strings.Join(fs.Args(), " "), *vector, *k)
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Fprintln(out, "enter queries, one per line (ctrl-D to exit):")
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" {
			continue
		}
		if err := runQuery(eng, out, q, *vector, *k); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	}
	return sc.Err()
}

// runUnified evaluates one unified-language query and prints the ranked
// results with scores.
func runUnified(eng *dualindex.Engine, out io.Writer, q string, k int) error {
	start := time.Now()
	matches, err := eng.Query(q, k)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d matches in %v\n", len(matches), time.Since(start).Round(time.Microsecond))
	for i, m := range matches {
		fmt.Fprintf(out, "%2d. doc %-8d score %.3f\n", i+1, m.Doc, m.Score)
	}
	return nil
}

// runQuery evaluates one query given as arguments: ranked by SearchVector
// under -vector, else every match of SearchBoolean.
func runQuery(eng *dualindex.Engine, out io.Writer, q string, vector bool, k int) error {
	start := time.Now()
	if vector {
		matches, err := eng.SearchVector(q, k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%d matches in %v\n", len(matches), time.Since(start).Round(time.Microsecond))
		for i, m := range matches {
			fmt.Fprintf(out, "%2d. doc %-8d score %.3f\n", i+1, m.Doc, m.Score)
		}
		return nil
	}
	docs, err := eng.SearchBoolean(q)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d matching documents in %v\n", len(docs), time.Since(start).Round(time.Microsecond))
	const maxShown = 20
	for i, d := range docs {
		if i == maxShown {
			fmt.Fprintf(out, "... and %d more\n", len(docs)-maxShown)
			break
		}
		fmt.Fprintf(out, "doc %d\n", d)
	}
	return nil
}
