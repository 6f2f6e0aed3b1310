package vocab

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dualindex/internal/postings"
)

func TestAssignAndLookup(t *testing.T) {
	v := New()
	a := v.GetOrAssign("cat")
	b := v.GetOrAssign("dog")
	if a == b {
		t.Fatal("distinct words share an id")
	}
	if again := v.GetOrAssign("cat"); again != a {
		t.Fatalf("reassigned: %d != %d", again, a)
	}
	if id, ok := v.Lookup("cat"); !ok || id != a {
		t.Fatal("Lookup failed")
	}
	if _, ok := v.Lookup("bird"); ok {
		t.Fatal("Lookup of unknown word succeeded")
	}
	if v.Len() != 2 {
		t.Fatalf("Len = %d", v.Len())
	}
}

func TestIDsAreDense(t *testing.T) {
	v := New()
	for i, w := range []string{"a", "b", "c", "d"} {
		if id := v.GetOrAssign(w); int(id) != i {
			t.Fatalf("id for %q = %d, want %d", w, id, i)
		}
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	v := New()
	for _, w := range []string{"cat", "dog", "mouse", "42"} {
		v.GetOrAssign(w)
	}
	got, err := Parse(v.AppendLog(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != v.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), v.Len())
	}
	for _, w := range []string{"cat", "dog", "mouse", "42"} {
		a, _ := v.Lookup(w)
		b, ok := got.Lookup(w)
		if !ok || a != b {
			t.Errorf("word %q: %d vs %d (ok=%v)", w, a, b, ok)
		}
	}
}

// TestLogBytes pins the on-disk format: one word per line in identifier
// order, no header, so the log of later words is the earlier log's
// continuation.
func TestLogBytes(t *testing.T) {
	v := New()
	for _, w := range []string{"cat", "dog", "mouse", "42"} {
		v.GetOrAssign(w)
	}
	const want = "cat\ndog\nmouse\n42\n"
	if got := string(v.AppendLog(nil, 0)); got != want {
		t.Fatalf("AppendLog wrote %q, want %q", got, want)
	}
	if got := string(v.AppendLog([]byte("cat\ndog\n"), 2)); got != want {
		t.Fatalf("AppendLog from word 2 continued the log as %q, want %q", got, want)
	}
	got, err := Parse([]byte(want))
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []string{"cat", "dog", "mouse", "42"} {
		if id, ok := got.Lookup(w); !ok || id != postings.WordID(i) {
			t.Errorf("word %q = id %d (ok=%v), want %d", w, id, ok, i)
		}
	}
	if got := New().AppendLog(nil, 0); len(got) != 0 {
		t.Fatalf("empty vocabulary wrote %q", got)
	}
}

// TestReadErrors: a repeated word is refused; an empty log is an empty
// vocabulary.
func TestReadErrors(t *testing.T) {
	for _, c := range []string{"cat\ncat\n", "cat\ndog\ncat\n"} {
		if _, err := Parse([]byte(c)); err == nil {
			t.Errorf("Parse(%q) succeeded", c)
		}
	}
	if v, err := Parse([]byte("")); err != nil || v.Len() != 0 {
		t.Errorf("Parse of an empty log: %d words, %v", v.Len(), err)
	}
}

// TestRoundtripLongWord: a word longer than any line buffer survives a
// write and read, between ordinary words.
func TestRoundtripLongWord(t *testing.T) {
	v := New()
	long := strings.Repeat("a", 2<<20)
	for _, w := range []string{"hello", long, "world"} {
		v.GetOrAssign(w)
	}
	got, err := Parse(v.AppendLog(nil, 0))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.Len() != 3 {
		t.Fatalf("read %d words, want 3", got.Len())
	}
	for i, w := range []string{"hello", long, "world"} {
		if id, ok := got.Lookup(w); !ok || id != postings.WordID(i) {
			t.Errorf("word %d (%d bytes): id %d, %v", i, len(w), id, ok)
		}
	}
}

// TestReadLineEnds: a last line without its newline is an append that
// never completed and is dropped, however long; a carriage return is part of
// its word, so every loaded log writes back as the lines it was read from.
func TestReadLineEnds(t *testing.T) {
	for _, in := range []string{"cat\ndog\nmo", "cat\ndog\n" + strings.Repeat("m", 2<<20)} {
		v, err := Parse([]byte(in))
		if err != nil {
			t.Fatalf("Parse(%.12q…): %v", in, err)
		}
		if id, ok := v.Lookup("dog"); !ok || id != 1 || v.Len() != 2 {
			t.Errorf("Parse(%.12q…): dog = %d, %v; %d words", in, id, ok, v.Len())
		}
	}
	v, err := Parse([]byte("cat\r\ndog\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.Lookup("cat\r"); !ok || string(v.AppendLog(nil, 0)) != "cat\r\ndog\n" {
		t.Errorf("carriage return not kept: %q", v.AppendLog(nil, 0))
	}
}

// TestCut: the words past the cut are gone — unknown to lookups and prefix
// scans, reassigned from the cut on — and the returned length is the log
// of the words kept.
func TestCut(t *testing.T) {
	v := New()
	for _, w := range []string{"invert", "index", "inversion", "zebra"} {
		v.GetOrAssign(w)
	}
	if got := v.WordsWithPrefix("inv"); len(got) != 2 {
		t.Fatalf("before the cut: %v", got)
	}
	if size := v.Cut(2); size != int64(len("invert\nindex\n")) {
		t.Fatalf("Cut(2) = %d", size)
	}
	if _, ok := v.Lookup("inversion"); ok || v.Len() != 2 {
		t.Fatalf("a cut word is still known; %d words", v.Len())
	}
	if got := v.WordsWithPrefix("inv"); !slices.Equal(got, []string{"invert"}) {
		t.Fatalf("prefix scan after the cut = %v", got)
	}
	if id := v.GetOrAssign("zebra"); id != 2 {
		t.Fatalf("first word after the cut took id %d, want 2", id)
	}
	if got := v.WordsWithPrefix(""); !slices.Equal(got, []string{"index", "invert", "zebra"}) {
		t.Fatalf("words after the cut = %v", got)
	}
}

// FuzzVocabLog reads arbitrary bytes as a vocabulary log: each must load or
// be refused, never panic, and a loaded log writes back byte for byte as the
// complete lines it was read from, each word at its line's identifier.
func FuzzVocabLog(f *testing.F) {
	for _, seed := range []string{"", "cat\ndog\n", "cat\ndog", "cat\ncat\n", "\n\n", "a\r\nb\n", "4\ncat\ndog\nmouse\n42\n"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Parse(bytes.Clone(data))
		if err != nil {
			return
		}
		lines := data[:bytes.LastIndexByte(data, '\n')+1]
		if got := v.AppendLog(nil, 0); !bytes.Equal(got, lines) {
			t.Fatalf("log %q writes back as %q", lines, got)
		}
		for i, w := range strings.SplitAfter(string(lines), "\n") {
			if id, ok := v.Lookup(strings.TrimSuffix(w, "\n")); w != "" && (!ok || int(id) != i) {
				t.Fatalf("line %d %q resolves to %d, %v", i, w, id, ok)
			}
		}
	})
}

func TestLookupBytes(t *testing.T) {
	v := New()
	v.GetOrAssign("cat")
	v.GetOrAssign("dog")
	if id, ok := v.LookupBytes([]byte("dog")); !ok || id != 1 {
		t.Errorf("LookupBytes(dog) = %d, %v; want 1, true", id, ok)
	}
	if _, ok := v.LookupBytes([]byte("cow")); ok {
		t.Error("LookupBytes found an unassigned word")
	}
	word := []byte("cat")
	if a := testing.AllocsPerRun(20, func() { v.LookupBytes(word) }); a != 0 {
		t.Errorf("LookupBytes: %v allocs, want 0", a)
	}
}

func TestQuickRoundtrip(t *testing.T) {
	f := func(n uint8) bool {
		v := New()
		for i := 0; i < int(n); i++ {
			v.GetOrAssign(word(i))
		}
		got, err := Parse(v.AppendLog(nil, 0))
		if err != nil || got.Len() != v.Len() {
			return false
		}
		for i := 0; i < int(n); i++ {
			a, _ := v.Lookup(word(i))
			b, ok := got.Lookup(word(i))
			if !ok || a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func word(i int) string {
	const letters = "abcdefghij"
	var b strings.Builder
	for {
		b.WriteByte(letters[i%10])
		i /= 10
		if i == 0 {
			return b.String()
		}
	}
}

func TestWordsWithPrefix(t *testing.T) {
	v := New()
	for _, w := range []string{"invert", "inverted", "index", "inversion", "zebra"} {
		v.GetOrAssign(w)
	}
	got := v.WordsWithPrefix("inver")
	want := []string{"inversion", "invert", "inverted"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("WordsWithPrefix = %v, want %v", got, want)
	}
	if got := v.WordsWithPrefix("zz"); len(got) != 0 {
		t.Fatalf("no-match prefix = %v", got)
	}
	// The full vocabulary, in order, under the empty prefix.
	all := v.WordsWithPrefix("")
	if len(all) != 5 || all[0] != "index" || all[4] != "zebra" {
		t.Fatalf("empty prefix = %v", all)
	}
	// Serialisation keeps the dictionary: a reloaded vocabulary answers the
	// same prefix scans.
	re, err := Parse(v.AppendLog(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	got2 := re.WordsWithPrefix("inver")
	if strings.Join(got2, ",") != strings.Join(want, ",") {
		t.Fatalf("reloaded WordsWithPrefix = %v", got2)
	}
}

// TestPrefixTreeBuiltOnFirstUse pins the lazy sorted view: nothing is
// sorted until the first prefix scan, words assigned after it join the view
// at the next scan, and a vocabulary from Parse defers its sort again —
// every path answering exactly like the same words scanned fresh.
func TestPrefixTreeBuiltOnFirstUse(t *testing.T) {
	v := New()
	for _, w := range []string{"invert", "index", "inversion"} {
		v.GetOrAssign(w)
	}
	if v.sorted != nil {
		t.Fatal("view sorted before the first prefix scan")
	}
	if got, want := v.WordsWithPrefix("inv"), []string{"inversion", "invert"}; !slices.Equal(got, want) {
		t.Fatalf("first scan = %v, want %v", got, want)
	}
	v.GetOrAssign("inverted")
	v.GetOrAssign("zebra")
	want := []string{"inversion", "invert", "inverted"}
	if got := v.WordsWithPrefix("inv"); !slices.Equal(got, want) {
		t.Fatalf("scan after later assignments = %v, want %v", got, want)
	}

	re, err := Parse(v.AppendLog(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if re.sorted != nil {
		t.Fatal("Parse sorted the view")
	}
	if got := re.WordsWithPrefix("inv"); !slices.Equal(got, want) {
		t.Fatalf("scan after Parse = %v, want %v", got, want)
	}
	re.GetOrAssign("invest")
	if got, want := re.WordsWithPrefix("inv"), append(want, "invest"); !slices.Equal(got, want) {
		t.Fatalf("scan after Parse and a later assignment = %v, want %v", got, want)
	}
	if got := re.WordsWithPrefix(""); len(got) != re.Len() {
		t.Fatalf("empty prefix = %d words, vocabulary holds %d", len(got), re.Len())
	}
}

// TestWordsWithPrefixProperty checks the sorted view against a brute-force
// filter-and-sort while assignments interleave with scans, on a fresh
// vocabulary and on one reloaded by Parse that keeps growing.
func TestWordsWithPrefixProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randWord := func() string {
		b := make([]byte, 1+rng.Intn(5))
		for i := range b {
			b[i] = "abcd"[rng.Intn(4)]
		}
		return string(b)
	}
	check := func(v *Vocab, all []string, prefix string) {
		t.Helper()
		var want []string
		for _, w := range all {
			if strings.HasPrefix(w, prefix) {
				want = append(want, w)
			}
		}
		slices.Sort(want)
		if got := v.WordsWithPrefix(prefix); !slices.Equal(got, want) {
			t.Fatalf("WordsWithPrefix(%q) = %v, want %v", prefix, got, want)
		}
	}
	grow := func(v *Vocab, all []string, steps int) []string {
		for i := 0; i < steps; i++ {
			if rng.Intn(3) == 0 {
				w := randWord()
				check(v, all, w[:rng.Intn(len(w)+1)])
				continue
			}
			w := randWord()
			if _, ok := v.Lookup(w); !ok {
				all = append(all, w)
			}
			v.GetOrAssign(w)
		}
		return all
	}
	for round := 0; round < 20; round++ {
		v := New()
		all := grow(v, nil, 300)
		re, err := Parse(v.AppendLog(nil, 0))
		if err != nil {
			t.Fatal(err)
		}
		check(re, all, randWord()[:1])
		check(re, all, "")
		grow(re, all, 300)
	}
}
