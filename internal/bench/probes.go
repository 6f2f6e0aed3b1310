package bench

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"dualindex"
	"dualindex/internal/core"
	"dualindex/internal/corpus"
	"dualindex/internal/directory"
	"dualindex/internal/disk" //nolint:ioboundary // layer probe: drives the block-store layer directly, on memory stores, to time it apart from the engine
	"dualindex/internal/docstore"
	"dualindex/internal/lexer"
	"dualindex/internal/longlist"
	"dualindex/internal/postings"
	"dualindex/internal/query"
)

// The layer probes replay a workload's own inputs through one layer's
// exported functions at a time, so a layer's cost is known apart from the
// engine calls that contain it. They run after the traced pass, outside
// every timed region, and feed only per-layer metrics.

// probeLexer times both tokenizers over every document of the script.
func (s *script) probeLexer(m Metrics) {
	var sink int
	t0 := time.Now()
	for _, d := range s.docs {
		sink += len(lexer.Tokenize(d, s.opts.Lexer))
	}
	t1 := time.Now()
	for _, d := range s.docs {
		sink += len(lexer.TokenizePositions(d, s.opts.Lexer))
	}
	t2 := time.Now()
	_ = sink
	n := float64(len(s.docs))
	m.set("lexer.tokenize_us_per_doc", "us", us(t1.Sub(t0))/n)
	m.set("lexer.positions_us_per_doc", "us", us(t2.Sub(t1))/n)
}

// probeDocstore writes the script's documents to a document log of its own
// and reads each back.
func (s *script) probeDocstore(m Metrics, dir string) error {
	ds, err := docstore.OpenFile(filepath.Join(dir, "docs.log"))
	if err != nil {
		return err
	}
	defer ds.Close()
	t0 := time.Now()
	for i, d := range s.docs {
		if err := ds.Put(postings.DocID(i+1), d); err != nil {
			return err
		}
	}
	if err := ds.Sync(); err != nil {
		return err
	}
	t1 := time.Now()
	for i, d := range s.docs {
		got, ok, err := ds.Get(postings.DocID(i + 1))
		if err != nil || !ok || len(got) != len(d) {
			return fmt.Errorf("docstore probe: doc %d read back wrong (ok=%v, err=%v)", i+1, ok, err)
		}
	}
	t2 := time.Now()
	n := float64(len(s.docs))
	m.set("docstore.put_us_per_doc", "us", us(t1.Sub(t0))/n)
	m.set("docstore.get_us_per_doc", "us", us(t2.Sub(t1))/n)
	return nil
}

// corePolicy maps the engine's public policy onto internal/longlist's, the
// way the engine itself does.
func corePolicy(p *dualindex.Policy) longlist.Policy {
	if p == nil {
		return longlist.NewRecommended()
	}
	out := longlist.Policy{K: p.K, ExtentBlocks: p.ExtentBlocks}
	switch p.Style {
	case "fill":
		out.Style = longlist.StyleFill
	case "whole":
		out.Style = longlist.StyleWhole
	default:
		out.Style = longlist.StyleNew
	}
	if p.InPlace {
		out.Limit = longlist.LimitZ
	}
	switch p.Alloc {
	case "block":
		out.Alloc = longlist.AllocBlock
	case "proportional":
		out.Alloc = longlist.AllocProportional
	}
	return out.Normalize()
}

// probeCore applies the corpus batches to a bare core.Index on a memory
// store — one shard's geometry and policy, no engine, lexer, document
// store or files above or below it — then replays the I/O trace it
// recorded through the paper's disk model (Figure 13's measure) and
// fetches the lists of the workload's query terms straight from the index.
func (s *script) probeCore(m Metrics, batches []*corpus.Batch) error {
	const numDisks, blocksPerDisk, blockSize = 4, 65536, 4096 // Options' defaults, which every workload keeps
	geo := disk.Geometry{NumDisks: numDisks, BlocksPerDisk: blocksPerDisk, BlockSize: blockSize}
	ix, err := core.New(core.Config{
		Buckets: s.opts.Buckets, BucketSize: s.opts.BucketSize,
		BlockPosting: blockSize / longlist.PostingBytes,
		Geometry:     geo,
		Policy:       corePolicy(s.opts.Policy),
		Store:        disk.NewMemStore(numDisks, blockSize),
		FlushWorkers: pinnedProcs,
	})
	if err != nil {
		return fmt.Errorf("core probe: %w", err)
	}
	for _, b := range batches {
		if _, err := ix.ApplyBatch(b); err != nil {
			return fmt.Errorf("core probe: day %d: %w", b.Day, err)
		}
	}
	m.set("disk.sim_update_s", "s", disk.NewExerciser(geo).Run(ix.Array().Trace()).Total().Seconds())

	ids := make(map[string]postings.WordID, coreVocab+rareVocab)
	for id := postings.WordID(0); id < coreVocab+rareVocab; id++ {
		ids[corpus.WordString(id)] = id
	}
	var lists int
	var spent time.Duration
	for i := s.timedFrom; i < len(s.ops); i++ {
		if o := &s.ops[i]; o.kind.isQuery() && !o.warm {
			for _, term := range o.terms {
				id, ok := ids[term]
				if !ok {
					continue
				}
				t0 := time.Now()
				_, err := ix.GetList(id)
				spent += time.Since(t0)
				if err != nil {
					return fmt.Errorf("core probe: GetList(%q): %w", term, err)
				}
				lists++
			}
		}
	}
	m.set("core.getlist_us_per_list", "us", us(spent)/float64(max(lists, 1)))
	return nil
}

// probeQuery parses and plans the workload's query strings without
// executing them.
func (s *script) probeQuery(m Metrics) error {
	var parse, plan time.Duration
	n := 0
	for i := s.timedFrom; i < len(s.ops); i++ {
		o := &s.ops[i]
		if !o.kind.isQuery() || o.warm {
			continue
		}
		var (
			expr query.Expr
			err  error
			po   = query.PlanOptions{Lexer: s.opts.Lexer}
		)
		t0 := time.Now()
		switch o.kind {
		case opBool:
			expr, err = query.Parse(o.text)
		case opRank:
			expr, err = query.ParseQuery(o.text)
			po.Scoring, po.K = dualindex.ScoringVector, rankK
		case opPhrase:
			expr = query.Phrase{Text: o.text}
		}
		t1 := time.Now()
		if err == nil {
			_, err = query.NewPlan(expr, po)
		}
		t2 := time.Now()
		if err != nil {
			return fmt.Errorf("query probe: %q: %w", o.text, err)
		}
		parse += t1.Sub(t0)
		plan += t2.Sub(t1)
		n++
	}
	m.set("query.parse_us_per_query", "us", us(parse)/float64(max(n, 1)))
	m.set("query.plan_us_per_query", "us", us(plan)/float64(max(n, 1)))
	return nil
}

// probeLists is how many of the corpus's longest lists the postings probe
// packs, unpacks and merges.
const probeLists = 200

// probePostings writes the corpus's longest lists through a bare long-list
// manager on a memory store, once per codec, and reads them back: pack and
// unpack cost per posting with the same store overhead under each codec
// (the raw layout has no PackBlocks of its own to call; going through the
// manager for all three keeps them comparable). Then it intersects and
// unions neighbouring lists.
func (o *oracle) probePostings(m Metrics) error {
	order := make([]int, len(o.termDocs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return len(o.termDocs[b]) - len(o.termDocs[a]) })
	order = order[:min(probeLists, len(order))]
	lists := make([]*postings.List, len(order))
	var total int
	for i, w := range order {
		docs := make([]postings.DocID, len(o.termDocs[w]))
		for j, d := range o.termDocs[w] {
			docs[j] = postings.DocID(d)
		}
		lists[i] = postings.FromDocs(docs)
		total += len(docs)
	}
	if total == 0 {
		return fmt.Errorf("postings probe: no lists")
	}

	const blockSize = 4096
	for _, id := range []postings.CodecID{postings.CodecRaw, postings.CodecVarint, postings.CodecGolomb} {
		codec, err := postings.NewBlockCodec(id) //nolint:ioboundary // layer probe: times each codec apart from Options.Codec
		if err != nil {
			return err
		}
		geo := disk.Geometry{NumDisks: 1, BlocksPerDisk: 1 << 22, BlockSize: blockSize}
		arr, err := disk.NewArray(geo, disk.NewMemStore(1, blockSize))
		if err != nil {
			return err
		}
		mgr, err := longlist.NewManagerCodec(longlist.UpdateOptimized(), arr, directory.New(),
			blockSize/longlist.PostingBytes, codec)
		if err != nil {
			return err
		}
		t0 := time.Now()
		for w, l := range lists {
			if err := mgr.Append(postings.WordID(w), int64(l.Len()), l); err != nil {
				return fmt.Errorf("postings probe: %v append: %w", id, err)
			}
		}
		mgr.EndBatch()
		t1 := time.Now()
		for w, l := range lists {
			got, _, err := mgr.ReadList(postings.WordID(w))
			if err != nil || got.Len() != l.Len() {
				return fmt.Errorf("postings probe: %v read back wrong: %v", id, err)
			}
		}
		t2 := time.Now()
		bytes := float64(longlist.PostingBytes)
		if _, enc := mgr.CompressionBytes(); enc > 0 {
			bytes = float64(enc) / float64(total)
		}
		name := id.String()
		m.set("postings.pack_ns_per_posting."+name, "ns", float64(t1.Sub(t0))/float64(total))
		m.set("postings.unpack_ns_per_posting."+name, "ns", float64(t2.Sub(t1))/float64(total))
		m.set("postings.bytes_per_posting."+name, "bytes", bytes)
	}

	var sink, merged int
	t0 := time.Now()
	for i := 0; i+1 < len(lists); i++ {
		sink += postings.Intersect(lists[i], lists[i+1]).Len()
		merged += lists[i].Len() + lists[i+1].Len()
	}
	t1 := time.Now()
	for i := 0; i+1 < len(lists); i++ {
		sink += postings.Union(lists[i], lists[i+1]).Len()
	}
	t2 := time.Now()
	_ = sink
	m.set("postings.intersect_ns_per_posting", "ns", float64(t1.Sub(t0))/float64(max(merged, 1)))
	m.set("postings.union_ns_per_posting", "ns", float64(t2.Sub(t1))/float64(max(merged, 1)))
	return nil
}
