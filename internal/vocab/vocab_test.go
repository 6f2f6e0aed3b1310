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
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
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

// TestWriteToBytes pins the on-disk format: a header line with the word
// count, then one word per line in identifier order.
func TestWriteToBytes(t *testing.T) {
	v := New()
	for _, w := range []string{"cat", "dog", "mouse", "42"} {
		v.GetOrAssign(w)
	}
	var buf bytes.Buffer
	n, err := v.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const want = "4\ncat\ndog\nmouse\n42\n"
	if buf.String() != want {
		t.Fatalf("WriteTo wrote %q, want %q", buf.String(), want)
	}
	if n != int64(len(want)) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, len(want))
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range []string{"cat", "dog", "mouse", "42"} {
		if id, ok := got.Lookup(w); !ok || id != postings.WordID(i) {
			t.Errorf("word %q = id %d (ok=%v), want %d", w, id, ok, i)
		}
	}

	buf.Reset()
	if _, err := New().WriteTo(&buf); err != nil || buf.String() != "0\n" {
		t.Fatalf("empty vocabulary wrote %q, %v; want \"0\\n\"", buf.String(), err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := []string{
		"",
		"notanumber\n",
		"3\ncat\ndog\n", // truncated
		"2\ncat\ncat\n", // duplicate
	}
	for _, c := range cases {
		if _, err := Read(strings.NewReader(c)); err == nil {
			t.Errorf("Read(%q) succeeded", c)
		}
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
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
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

// TestReadLineEnds: Read takes \r\n line ends and a last line without a
// newline, as the line scanner it replaced did.
func TestReadLineEnds(t *testing.T) {
	for _, in := range []string{"2\r\ncat\r\ndog\r\n", "2\ncat\ndog"} {
		v, err := Read(strings.NewReader(in))
		if err != nil {
			t.Fatalf("Read(%q): %v", in, err)
		}
		if id, ok := v.Lookup("dog"); !ok || id != 1 || v.Len() != 2 {
			t.Errorf("Read(%q): dog = %d, %v; %d words", in, id, ok, v.Len())
		}
	}
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
		var buf bytes.Buffer
		if _, err := v.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
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
	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Read(&buf)
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
// at the next scan, and a vocabulary from Read defers its sort again —
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

	var buf bytes.Buffer
	if _, err := v.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	re, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if re.sorted != nil {
		t.Fatal("Read sorted the view")
	}
	if got := re.WordsWithPrefix("inv"); !slices.Equal(got, want) {
		t.Fatalf("scan after Read = %v, want %v", got, want)
	}
	re.GetOrAssign("invest")
	if got, want := re.WordsWithPrefix("inv"), append(want, "invest"); !slices.Equal(got, want) {
		t.Fatalf("scan after Read and a later assignment = %v, want %v", got, want)
	}
	if got := re.WordsWithPrefix(""); len(got) != re.Len() {
		t.Fatalf("empty prefix = %d words, vocabulary holds %d", len(got), re.Len())
	}
}

// TestWordsWithPrefixProperty checks the sorted view against a brute-force
// filter-and-sort while assignments interleave with scans, on a fresh
// vocabulary and on one reloaded by Read that keeps growing.
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
		var buf bytes.Buffer
		if _, err := v.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		re, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check(re, all, randWord()[:1])
		check(re, all, "")
		grow(re, all, 300)
	}
}
