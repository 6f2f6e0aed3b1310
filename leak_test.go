package dualindex

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// engineGoroutines returns the stacks of every live goroutine with an
// engine frame (a dualindex package on its call stack), excluding test
// goroutines. The shutdown contract is that Close joins all of them: the
// file backend's async disk writers and any flush worker pool.
func engineGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(g, "dualindex") {
			continue
		}
		if strings.Contains(g, "_test.go") || strings.Contains(g, "testing.tRunner") {
			continue
		}
		out = append(out, g)
	}
	return out
}

// assertNoEngineGoroutines retries until every engine goroutine beyond the
// pre-test baseline is gone — goroutine exit is asynchronous with the Close
// call that signalled it — and fails with the leaked stacks on timeout.
func assertNoEngineGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		leaked := engineGoroutines()
		if len(leaked) <= baseline {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d engine goroutine(s) still running after Close (baseline %d):\n\n%s",
				len(leaked), baseline, strings.Join(leaked, "\n\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCloseStopsFileBackendWriters: the real-I/O backend runs async writer
// goroutines per disk (plus the block cache in front); Close must drain and
// join them.
func TestCloseStopsFileBackendWriters(t *testing.T) {
	baseline := len(engineGoroutines())
	opts := codecOpts(t.TempDir(), CodecVarint)
	opts.CacheBlocks = 8
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range synthTexts(80, 60, 30, 20) {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SearchBoolean(synthWord(0)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEngineGoroutines(t, baseline)
}

// TestCloseAfterReshard: a reshard migrates documents through fresh shards
// (their stores and flush machinery included) while searches keep running;
// once it completes, Close must leave nothing behind — neither the old
// shards' goroutines nor the migration's.
func TestCloseAfterReshard(t *testing.T) {
	baseline := len(engineGoroutines())
	opts := reshardOpts(t.TempDir(), 1)
	eng, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	buildCorpus(t, eng, synthTexts(120, 80, 30, 20))

	// Searches in flight while the reshard streams: the scenario the
	// snapshot and lock contracts exist for.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if _, err := eng.SearchBoolean(synthWord(i % 20)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	if _, err := eng.Reshard(3); err != nil {
		t.Fatal(err)
	}
	<-done
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoEngineGoroutines(t, baseline)
}
