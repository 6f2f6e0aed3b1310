package bench

import (
	"fmt"

	"dualindex"
	"dualindex/internal/corpus"
)

// Workers and GOMAXPROCS are pinned so a run means the same thing on any
// machine with at least two cores.
const pinnedProcs = 2

// workload is one named set of inputs. build lays the whole op script out
// from the seed and a size factor (1 = the calibrated size, see README);
// nothing in it looks at a clock.
type workload struct {
	name  string
	why   string
	build func(seed int64, size float64) (*script, []*corpus.Batch, error)
}

// Workloads lists the benchmark's workloads in BENCHMARK.json order.
func Workloads() []WorkloadSpec {
	out := make([]WorkloadSpec, len(workloads))
	for i, w := range workloads {
		out[i] = WorkloadSpec{Name: w.name, Why: w.why}
	}
	return out
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// scaled sizes a count by the size factor, never below floor.
func scaled(n int, size float64, floor int) int {
	return max(floor, int(float64(n)*size+0.5))
}

// baseOptions is what every workload shares. Geometry is Options' default
// (256 buckets × 4096 units, 4 disks of 4 KiB blocks) at the calibrated
// size; the bucket count shrinks with the corpus below it, because every
// flush rewrites the whole bucket region and at test scale that fixed
// cost would be all a flush does.
func baseOptions(size float64) dualindex.Options {
	return dualindex.Options{
		Backend:       dualindex.BackendFile,
		Codec:         dualindex.CodecRaw,
		KeepDocuments: true,
		Shards:        1,
		Workers:       pinnedProcs,
		Buckets:       min(256, scaled(256, size, 8)),
		BucketSize:    4096,
	}
}

var workloads = []workload{
	{
		name: "ingest_durable",
		why: "writes dominate: 73 daily batches through lexer, pending tier, core apply, long lists and buckets, " +
			"the async file store, the document log and the vocabulary save; reads are a short tail on the result",
		build: buildIngestDurable,
	},
	{
		name: "query_static",
		why: "reads dominate: a finished 73-day index behind a block cache a tenth of its size, so parse, plan, " +
			"list fetch, decode, set operations and scoring do the work and most block reads miss the cache",
		build: buildQueryStatic,
	},
	{
		name: "mixed_live",
		why: "queries interleave with ingest and must merge the live in-memory tier with the disk tier while the " +
			"index grows; no block cache: a write-side gain that costs reads shows here",
		build: buildMixedLive,
	},
	{
		name: "churn_sharded",
		why: "delete-add-flush-query-sweep rounds under the whole-list-rewrite policy on two shards with a cache " +
			"that holds everything: deletion filtering, sweep, shard routing, fan-out and cross-shard merge",
		build: buildChurnSharded,
	},
}

// reopens is how many cold Open + first query + Close cycles every workload
// runs per repetition.
const reopens = 7

// tail appends the short closing section every workload shares, so that
// each end-to-end metric is measured on each workload (the acceptance
// driver wants the full matrix) by a real call on that workload's own
// index and configuration, never by stand-in work: two delete-and-sweep
// rounds, a consistency check, a close, then cold reopen cycles.
func (b *builder) tail(sweepDocs, cycles int) {
	b.setPhase("sweep")
	for i := 0; i < 2; i++ {
		b.deleteOldest(sweepDocs)
		b.step(opSweep)
	}
	b.step(opCheck)
	b.step(opClose)
	b.setPhase("reopen")
	b.reopenCycles(cycles)
}

// ingest_durable: AddDocument every document of a 73-day stream (one in a
// hundred as a visibility sample), FlushBatch per day, Close; then open the
// result, ask it a short query mix, and run the common tail.
func buildIngestDurable(seed int64, size float64) (*script, []*corpus.Batch, error) {
	days, err := genCorpus(seed, 73, scaled(430, size, 4))
	if err != nil {
		return nil, nil, err
	}
	b := newBuilder(seed, baseOptions(size))
	b.setPhase("ingest")
	b.step(opOpen)
	for _, day := range days {
		b.addDay(day, 100)
	}
	b.step(opMark)
	b.step(opClose)
	b.setPhase("query")
	b.step(opOpen)
	b.queries(scaled(400, size, 30), defaultMix, false)
	b.tail(len(b.s.docs)/100, reopens)
	return b.s, days, nil
}

// query_static: the index is built and closed during set-up. Timed: cold
// reopen cycles, then one long-lived engine with a cache of about 9 % of
// the index answers a warm-up and the measured query mix; ten more days
// then arrive as small updates to a large index, and the common tail runs.
func buildQueryStatic(seed int64, size float64) (*script, []*corpus.Batch, error) {
	const updateDays = 10
	days, err := genCorpus(seed, 73+updateDays, scaled(300, size, 4))
	if err != nil {
		return nil, nil, err
	}
	opts := baseOptions(size)
	opts.CacheBlocks = scaled(512, size, 8)
	b := newBuilder(seed, opts)
	b.setPhase("build")
	b.step(opOpen)
	for _, day := range days[:73] {
		b.addDay(day, 0)
	}
	b.step(opClose)
	b.startTimed()
	b.setPhase("reopen")
	b.reopenCycles(reopens)
	b.setPhase("warmup")
	b.step(opOpen)
	b.queries(scaled(100, size, 10), defaultMix, true)
	b.setPhase("query")
	b.queries(scaled(1000, size, 60), defaultMix, false)
	b.step(opMark)
	b.setPhase("update")
	for _, day := range days[73:] {
		b.addDay(day, 1)
	}
	b.tail(len(b.s.docs)/100, 0)
	return b.s, days, nil
}

// mixed_live: one interleaved stream (Moffat & Mackenzie's protocol).
// Every tenth add is a visibility sample, every ten adds are followed by
// one query of the mix, every day ends in a flush.
func buildMixedLive(seed int64, size float64) (*script, []*corpus.Batch, error) {
	days, err := genCorpus(seed, 40, scaled(480, size, 10))
	if err != nil {
		return nil, nil, err
	}
	opts := baseOptions(size)
	opts.LiveSearch = true
	b := newBuilder(seed, opts)
	b.setPhase("ingest+query")
	b.step(opOpen)
	n := 0
	for _, day := range days {
		for _, d := range day.Docs {
			n++
			if n%10 == 0 {
				b.addVisible(d, day.Day)
				b.query(defaultMix, false)
			} else {
				b.add(d, day.Day, "")
			}
		}
		b.step(opFlush)
	}
	b.step(opMark)
	b.tail(len(b.s.docs)/100, reopens)
	return b.s, days, nil
}

// churn_sharded: days 0-35 are preloaded during set-up. Each timed round
// deletes as many of the oldest live documents as the day brings, adds the
// day, flushes, and asks 27 queries; every fourth round sweeps.
func buildChurnSharded(seed int64, size float64) (*script, []*corpus.Batch, error) {
	const preload = 36
	days, err := genCorpus(seed, 73, scaled(420, size, 4))
	if err != nil {
		return nil, nil, err
	}
	opts := baseOptions(size)
	opts.Shards = 2
	policy := dualindex.PolicyFastQuery
	opts.Policy = &policy
	opts.CacheBlocks = 65536
	b := newBuilder(seed, opts)
	b.setPhase("preload")
	b.step(opOpen)
	for _, day := range days[:preload] {
		b.addDay(day, 0)
	}
	b.step(opClose)
	b.startTimed()
	b.setPhase("churn")
	b.step(opOpen)
	for r, day := range days[preload:] {
		b.deleteOldest(len(day.Docs))
		b.addDay(day, 50)
		b.queries(27, mix{57, 38}, false)
		if r%4 == 3 {
			b.step(opSweep)
		}
	}
	b.step(opMark)
	b.tail(len(b.s.docs)/200, reopens)
	return b.s, days, nil
}
