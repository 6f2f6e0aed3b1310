package dualindex

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dualindex/internal/core"
	"dualindex/internal/disk"
	"dualindex/internal/longlist"
)

// TestConcurrentAddSearchFlush hammers the engine from three directions at
// once — writers adding documents, readers running boolean and vector
// queries, and a flusher pushing batches to disk — and then verifies that
// every document landed in the index. Run with -race, this is the stress
// test of the engine's snapshot/locking scheme.
func TestConcurrentAddSearchFlush(t *testing.T) {
	eng, err := Open(Options{Buckets: 32, BucketSize: 256, CacheBlocks: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	const (
		writers   = 4
		docsEach  = 150
		searchers = 4
	)
	var wgWriters, wgOthers sync.WaitGroup
	var stop atomic.Bool

	for g := 0; g < writers; g++ {
		wgWriters.Add(1)
		go func(g int) {
			defer wgWriters.Done()
			for i := 0; i < docsEach; i++ {
				eng.AddDocument(fmt.Sprintf("writer%d common doc%d topic%d", g, i, i%7))
			}
		}(g)
	}
	for g := 0; g < searchers; g++ {
		wgOthers.Add(1)
		go func(g int) {
			defer wgOthers.Done()
			for !stop.Load() {
				if _, err := eng.SearchBoolean(fmt.Sprintf("common and topic%d", g%7)); err != nil {
					t.Errorf("boolean: %v", err)
					return
				}
				if _, err := eng.SearchVector("common topic1 topic2 topic3", 10); err != nil {
					t.Errorf("vector: %v", err)
					return
				}
				eng.Stats()
			}
		}(g)
	}
	wgOthers.Add(1)
	go func() {
		defer wgOthers.Done()
		for !stop.Load() {
			if _, err := eng.FlushBatch(); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
		}
	}()

	wgWriters.Wait()
	stop.Store(true)
	wgOthers.Wait()
	if t.Failed() {
		return
	}

	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	docs, err := eng.SearchBoolean("common")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != writers*docsEach {
		t.Fatalf("found %d documents, want %d", len(docs), writers*docsEach)
	}
	if err := eng.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryDuringFlushSeesStableResults verifies the snapshot scheme's
// correctness property: a query running while a batch flushes returns
// exactly the documents it would return after the flush — mid-flush answers
// never expose half-applied state. Mid-flush, queries read the detached
// pending tier's runs while core applies those same runs, and the phrase
// query verifies its candidates from the document store. It runs under both
// settings of Options.LiveSearch, which callers still pass, to pin that the
// option changes nothing.
func TestQueryDuringFlushSeesStableResults(t *testing.T) {
	for _, live := range []bool{false, true} {
		t.Run(fmt.Sprintf("LiveSearch=%v", live), func(t *testing.T) {
			testQueryDuringFlush(t, live)
		})
	}
}

func testQueryDuringFlush(t *testing.T, live bool) {
	eng, err := Open(Options{Buckets: 16, BucketSize: 128, KeepDocuments: true, LiveSearch: live})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// Several flushed batches grow long lists; one more batch sits pending.
	// Word variants are letters, not digits: the lexer strips digits.
	const rounds = 6
	perRound := 80
	for r := 0; r < rounds; r++ {
		for i := 0; i < perRound; i++ {
			eng.AddDocument(fmt.Sprintf("stable anchor%c word%d", 'a'+i%11, r*perRound+i))
		}
		if r < rounds-1 {
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}

	boolean := func(q string) func() ([]DocID, error) {
		return func() ([]DocID, error) { return eng.SearchBoolean(q) }
	}
	queries := []struct {
		name string
		run  func() ([]DocID, error)
	}{
		{"stable", boolean("stable")},
		{"stable and anchord", boolean("stable and anchord")},
		{"anchorb or anchorh", boolean("anchorb or anchorh")},
		{"anchor*", boolean("anchor*")},
		{`"stable anchorc"`, func() ([]DocID, error) { return eng.SearchPhrase("stable anchorc") }},
	}
	// A flush changes no query-visible state (the pending batch is already
	// searchable), so the pre-flush answers are THE answers: every
	// observation during the flush, and the post-flush answers, must match
	// them exactly.
	want := make([][]DocID, len(queries))
	for qi, q := range queries {
		docs, err := q.run()
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) == 0 {
			t.Fatalf("query %s answers nothing", q.name)
		}
		want[qi] = docs
	}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for round := 0; round < 30; round++ {
				for qi, q := range queries {
					docs, err := q.run()
					if err != nil {
						t.Errorf("query %s: %v", q.name, err)
						return
					}
					if !slices.Equal(docs, want[qi]) {
						t.Errorf("query %s: searcher %d saw %d docs mid-flush, want %d", q.name, g, len(docs), len(want[qi]))
						return
					}
				}
			}
		}(g)
	}
	close(start)
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for qi, q := range queries {
		after, err := q.run()
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(after, want[qi]) {
			t.Fatalf("query %s: %d docs after flush, want %d", q.name, len(after), len(want[qi]))
		}
	}
}

// parkingStore parks the first write made after it is armed until release
// is closed, and announces it by closing parked. A flush's first write is
// made inside ApplyUpdate, so a parked flush sits in its apply phase,
// between the two moments it holds the shard lock.
type parkingStore struct {
	disk.BlockStore
	armed   atomic.Bool
	once    sync.Once
	parked  chan struct{}
	release chan struct{}
}

func (p *parkingStore) WriteAt(d int, block int64, buf []byte) error {
	if p.armed.Load() {
		p.once.Do(func() {
			close(p.parked)
			<-p.release
		})
	}
	return p.BlockStore.WriteAt(d, block, buf)
}

// TestFlushDoesNotBlockSearches checks liveness deterministically: while a
// flush is parked inside its apply phase, the shard lock is free and a
// search returns the pre-flush answer, which the flush leaves unchanged.
// (With -race this also exercises snapshot reads racing the apply.)
func TestFlushDoesNotBlockSearches(t *testing.T) {
	eng, err := Open(Options{Buckets: 16, BucketSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// Give the shard a fresh index that writes through the parking store.
	s, o := eng.shards[0], eng.opts
	store := &parkingStore{BlockStore: s.store, parked: make(chan struct{}), release: make(chan struct{})}
	pol, err := o.Policy.internal()
	if err != nil {
		t.Fatal(err)
	}
	if s.index, err = core.New(core.Config{
		Buckets:      o.Buckets,
		BucketSize:   o.BucketSize,
		BlockPosting: int64(o.BlockSize / longlist.PostingBytes),
		Geometry:     disk.Geometry{NumDisks: o.NumDisks, BlocksPerDisk: o.BlocksPerDisk, BlockSize: o.BlockSize},
		Policy:       pol,
		Store:        store,
	}); err != nil {
		t.Fatal(err)
	}

	const query = "liveness and gamma"
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < 1000; i++ {
		eng.AddDocument("liveness filler " + words[i%len(words)])
		if i == 499 {
			if _, err := eng.FlushBatch(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := eng.SearchBoolean(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("the query matches nothing; the check is vacuous")
	}

	store.armed.Store(true)
	flushed := make(chan error, 1)
	go func() {
		_, err := eng.FlushBatch()
		flushed <- err
	}()
	<-store.parked
	// The checks run while the flush is parked; it is released before
	// any of them fails the test.
	parkedErr := func() error {
		if !s.mu.TryRLock() {
			return fmt.Errorf("the flush holds the shard lock while it applies its batch")
		}
		s.mu.RUnlock()
		got, err := eng.SearchBoolean(query)
		if err != nil {
			return err
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("mid-flush search: %d docs, want the pre-flush %d", len(got), len(want))
		}
		return nil
	}()
	close(store.release)
	if err := <-flushed; err != nil {
		t.Fatal(err)
	}
	if parkedErr != nil {
		t.Fatal(parkedErr)
	}
	after, err := eng.SearchBoolean(query)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(after, want) {
		t.Fatalf("post-flush search: %d docs, want %d", len(after), len(want))
	}
}

// TestConcurrentDeleteAndSearch exercises Delete (which serialises with
// flushes) racing searches and flushes.
func TestConcurrentDeleteAndSearch(t *testing.T) {
	eng, err := Open(Options{Buckets: 16, BucketSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var ids []DocID
	for i := 0; i < 200; i++ {
		ids = append(ids, eng.AddDocument(fmt.Sprintf("victim word%d", i%5)))
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for _, id := range ids[:100] {
			eng.Delete(id)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if _, err := eng.SearchBoolean("victim"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	docs, err := eng.SearchBoolean("victim")
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 100 {
		t.Fatalf("after deletes, %d docs visible, want 100", len(docs))
	}
}

// TestPrefixQueriesRightAfterOpen: a cold open leaves the vocabulary's
// sorted view empty, so the first truncation queries race to build and
// extend it under the shard read lock while documents — some with new
// words — keep arriving under the write lock. Run with -race, this pins the
// view's synchronisation; every answer must still hold what the checkpoint held,
// and the words added meanwhile must be found by prefix afterwards.
func TestPrefixQueriesRightAfterOpen(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			opts := smallOpts(0)
			opts.Dir = persistDir(t, shards)
			eng, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := eng.SearchBoolean("wa*")
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}

			eng, err = Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			// vocabulary 60 adds words "wb…" and "wc…" the checkpoint lacks.
			added := synthTexts(89, 30, 60, 15)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 10; i++ {
						got, err := eng.SearchBoolean("wa*")
						if err != nil {
							t.Error(err)
							return
						}
						for _, d := range want {
							if _, found := slices.BinarySearch(got, d); !found {
								t.Errorf("prefix answer lost checkpointed doc %d", d)
								return
							}
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, text := range added {
					eng.AddDocument(text)
				}
			}()
			close(start)
			wg.Wait()

			var wantNew []DocID
			for i, text := range added {
				if strings.Contains(" "+text, " wc") {
					wantNew = append(wantNew, want[len(want)-1]+DocID(i+1))
				}
			}
			got, err := eng.SearchBoolean("wc*")
			if err != nil {
				t.Fatal(err)
			}
			if len(wantNew) == 0 || !slices.Equal(got, wantNew) {
				t.Fatalf("prefix over words added after open = %v, want %v", got, wantNew)
			}
		})
	}
}

// TestCloseDuringQueries: Close on a file index waits for the queries in
// flight, and a query issued after Close returns finds the engine closed,
// so no query reads a file Close has closed: every answer is either the
// full result or errClosed. Run with -race.
func TestCloseDuringQueries(t *testing.T) {
	eng, err := Open(reshardOpts(t.TempDir(), 2))
	if err != nil {
		t.Fatal(err)
	}
	texts := make([]string, 300)
	for i := range texts {
		texts[i] = "anchor term common words"
	}
	buildCorpus(t, eng, texts)

	const readers = 4
	var wg sync.WaitGroup
	var answered atomic.Int64
	var closed atomic.Bool
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				after := closed.Load()
				docs, err := eng.SearchBoolean("anchor and term")
				if err == nil {
					_, _, err = eng.Document(1)
				}
				switch {
				case errors.Is(err, errClosed):
					return
				case err != nil:
					errs <- fmt.Errorf("query during Close: %w", err)
					return
				case after:
					errs <- fmt.Errorf("query issued after Close answered %d documents", len(docs))
					return
				case len(docs) != len(texts):
					errs <- fmt.Errorf("query answered %d documents, want %d", len(docs), len(texts))
					return
				}
				answered.Add(1)
			}
		}()
	}
	// Close once the readers are well under way.
	for answered.Load() < 4*readers && len(errs) == 0 {
		runtime.Gosched()
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	closed.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
