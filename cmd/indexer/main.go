// Command indexer incrementally builds a dual-structure index from a corpus
// directory produced by cmd/newsgen: each day-*.txt file is one batch
// update, applied in place and checkpointed, exactly the paper's update
// protocol. Interrupt it at any point and rerun: it resumes from the last
// completed batch.
//
// Usage:
//
//	indexer -corpus corpus/ -index idx/ -policy balanced
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"dualindex"
	"dualindex/internal/obshttp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("indexer: ")
	var (
		corpusDir = flag.String("corpus", "corpus", "corpus directory (day-*.txt files)")
		indexDir  = flag.String("index", "idx", "index directory")
		policy    = flag.String("policy", "balanced", "fast-update | balanced | fast-query | extents")
		buckets   = flag.Int("buckets", 256, "number of buckets")
		bsize     = flag.Int("bucketsize", 8192, "bucket size in word+posting units")
		shards    = flag.Int("shards", 0, "index shards for a fresh index (0 adopts an existing index's manifest)")
		backend   = flag.String("backend", "", "block-store backend: file (empty adopts the manifest; file is the only persistent backend)")
		codec     = flag.String("codec", "", "long-list block codec for a fresh index: raw | varint | golomb (empty adopts the manifest, raw for a fresh index)")
		keepDocs  = flag.Bool("keepdocs", false, "keep document text in the index (required for -reshard and positional queries)")
		reshard   = flag.Int("reshard", 0, "reshard the existing index to this many shards and exit (requires an index built with -keepdocs)")
		check     = flag.Bool("check", true, "run the consistency check after the build")
		metrics   = flag.String("metrics", "", "serve /metrics, /stats, /trace, /healthz and /debug/pprof on this address (e.g. localhost:6060); enables instrumentation")
	)
	flag.Parse()
	if *reshard > 0 {
		if err := runReshard(*indexDir, *reshard); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := run(*corpusDir, *indexDir, *policy, *buckets, *bsize, *shards, *backend, *codec, *keepDocs, *check, *metrics); err != nil {
		log.Fatal(err)
	}
}

// runReshard opens an existing index (adopting its manifest) and migrates it
// to n shards in place — the online resharding path, exercised offline.
func runReshard(indexDir string, n int) error {
	eng, err := dualindex.Open(dualindex.Options{Dir: indexDir, KeepDocuments: true})
	if err != nil {
		return err
	}
	defer eng.Close()
	st, err := eng.Reshard(n)
	if err != nil {
		return err
	}
	fmt.Printf("resharded %s: %d -> %d shards, %d docs migrated in %d batches (%d deleted docs swept) in %v\n",
		indexDir, st.FromShards, st.ToShards, st.Docs, st.Batches, st.Skipped,
		st.Dur.Round(time.Millisecond))
	if err := eng.CheckConsistency(); err != nil {
		return fmt.Errorf("consistency check FAILED: %w", err)
	}
	fmt.Println("consistency check passed")
	return nil
}

// serveObs starts the observability endpoint for eng on addr, in the
// background; build failures surface on the log only, since a broken metrics
// listener should not kill a running build.
func serveObs(eng *dualindex.Engine, addr string) {
	cfg := obshttp.Config{
		Registry:    eng.Metrics(),
		Stats:       func() any { return eng.Stats() },
		ShardStats:  func() []any { return shardStatsAny(eng) },
		Tracer:      eng.Tracer(),
		SlowQueries: func() any { return eng.SlowQueries() },
		Health:      func() obshttp.HealthState { return healthState(eng) },
	}
	go func() {
		if err := http.ListenAndServe(addr, obshttp.New(cfg)); err != nil {
			log.Printf("metrics endpoint: %v", err)
		}
	}()
}

// shardStatsAny and healthState adapt the engine's typed answers to the
// handler's generic config.
func shardStatsAny(eng *dualindex.Engine) []any {
	sts := eng.ShardStats()
	out := make([]any, len(sts))
	for i, st := range sts {
		out[i] = st
	}
	return out
}

func healthState(eng *dualindex.Engine) obshttp.HealthState {
	h := eng.Health()
	return obshttp.HealthState{Healthy: h.Healthy, Ready: h.Ready, Reasons: h.Reasons}
}

func policyByName(name string) (dualindex.Policy, error) {
	switch name {
	case "fast-update":
		return dualindex.PolicyFastUpdate, nil
	case "balanced":
		return dualindex.PolicyBalanced, nil
	case "fast-query":
		return dualindex.PolicyFastQuery, nil
	case "extents":
		return dualindex.PolicyExtents, nil
	}
	return dualindex.Policy{}, fmt.Errorf("unknown policy %q", name)
}

func run(corpusDir, indexDir, policyName string, buckets, bucketSize, shards int, backend, codec string, keepDocs, check bool, metricsAddr string) error {
	pol, err := policyByName(policyName)
	if err != nil {
		return err
	}
	days, err := filepath.Glob(filepath.Join(corpusDir, "day-*.txt"))
	if err != nil {
		return err
	}
	if len(days) == 0 {
		return fmt.Errorf("no day-*.txt files in %s (run cmd/newsgen first)", corpusDir)
	}
	slices.Sort(days)

	opts := dualindex.Options{
		Dir:           indexDir,
		Shards:        shards,
		Backend:       backend,
		Codec:         codec,
		KeepDocuments: keepDocs,
		Policy:        &pol,
		Buckets:       buckets,
		BucketSize:    bucketSize,
	}
	if metricsAddr != "" {
		opts.Metrics = true
		opts.TraceBuffer = 4096
	}
	eng, err := dualindex.Open(opts)
	if err != nil {
		return err
	}
	defer eng.Close()
	if metricsAddr != "" {
		serveObs(eng, metricsAddr)
	}

	// Resume: skip the batches already applied.
	done := eng.Stats().Batches
	if done > 0 {
		fmt.Printf("resuming after %d completed batches\n", done)
	}
	if done > len(days) {
		done = len(days)
	}
	for _, day := range days[done:] {
		start := time.Now()
		docs, err := loadDay(day)
		if err != nil {
			return err
		}
		for _, d := range docs {
			eng.AddDocument(d)
		}
		st, err := eng.FlushBatch()
		if err != nil {
			return err
		}
		fmt.Printf("%s: %5d docs %7d postings %4d evictions  r=%6d w=%6d  %v\n",
			filepath.Base(day), st.Docs, st.Postings, st.Evictions,
			st.ReadOps, st.WriteOps, time.Since(start).Round(time.Millisecond))
	}
	s := eng.Stats()
	fmt.Printf("\nindex: %d docs, %d words, %d long lists, %d bucket words\n",
		s.Docs, s.Words, s.LongLists, s.BucketWords)
	fmt.Printf("long-list utilization %.2f, avg reads per long list %.2f\n",
		s.Utilization, s.AvgReadsPerList)
	fmt.Printf("i/o: %d read ops (%d blocks), %d write ops (%d blocks)\n",
		s.ReadOps, s.ReadBlocks, s.WriteOps, s.WriteBlocks)
	if s.CodecEncodedBytes > 0 {
		fmt.Printf("codec: %d raw bytes packed into %d (compression ratio %.2f)\n",
			s.CodecRawBytes, s.CodecEncodedBytes, s.CompressionRatio)
	}
	if check {
		if err := eng.CheckConsistency(); err != nil {
			return fmt.Errorf("consistency check FAILED: %w", err)
		}
		fmt.Println("consistency check passed")
	}
	return nil
}

func loadDay(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var docs []string
	var cur strings.Builder
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "%%" {
			if cur.Len() > 0 {
				docs = append(docs, cur.String())
				cur.Reset()
			}
			continue
		}
		cur.WriteString(line)
		cur.WriteString("\n")
	}
	if cur.Len() > 0 {
		docs = append(docs, cur.String())
	}
	return docs, sc.Err()
}
