package corpus

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"dualindex/internal/lexer"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 14
	cfg.DocsPerDay = 50
	cfg.WordsPerDoc = 30
	cfg.VocabSize = 20_000
	return cfg
}

func TestGeneratorDeterministic(t *testing.T) {
	a, err := GenerateAll(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateAll(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("batch counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Docs) != len(b[i].Docs) {
			t.Fatalf("day %d doc counts differ", i)
		}
		for j := range a[i].Docs {
			if a[i].Docs[j].ID != b[i].Docs[j].ID {
				t.Fatalf("day %d doc %d ids differ", i, j)
			}
			for k := range a[i].Docs[j].Words {
				if a[i].Docs[j].Words[k] != b[i].Docs[j].Words[k] {
					t.Fatalf("day %d doc %d word %d differs", i, j, k)
				}
			}
		}
	}
}

func TestGeneratorRejectsBadConfig(t *testing.T) {
	bad := []Config{
		{},
		{Days: 1, DocsPerDay: 1, WordsPerDoc: 1, VocabSize: 0, ZipfS: 1.1, ZipfV: 1},
		{Days: 1, DocsPerDay: 1, WordsPerDoc: 1, VocabSize: 10, ZipfS: 1.0, ZipfV: 1},
		{Days: 1, DocsPerDay: 1, WordsPerDoc: 1, VocabSize: 10, ZipfS: 1.1, ZipfV: 0},
	}
	for i, cfg := range bad {
		if _, err := NewGenerator(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestDocIDsStrictlyIncreasing(t *testing.T) {
	batches, err := GenerateAll(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	last := uint32(0)
	for _, b := range batches {
		for _, d := range b.Docs {
			if uint32(d.ID) <= last {
				t.Fatalf("doc id %d not increasing after %d", d.ID, last)
			}
			last = uint32(d.ID)
		}
	}
}

func TestDocWordsSortedUnique(t *testing.T) {
	batches, err := GenerateAll(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, d := range b.Docs {
			for i := 1; i < len(d.Words); i++ {
				if d.Words[i] <= d.Words[i-1] {
					t.Fatalf("doc %d words not sorted-unique at %d", d.ID, i)
				}
			}
		}
	}
}

func TestSaturdayDip(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 28
	cfg.TinyUpdateDay = -1
	batches, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var satDocs, weekdayDocs, satDays, weekdays int
	for _, b := range batches {
		if b.Day%7 == 5 {
			satDocs += len(b.Docs)
			satDays++
		} else {
			weekdayDocs += len(b.Docs)
			weekdays++
		}
	}
	satAvg := float64(satDocs) / float64(satDays)
	weekAvg := float64(weekdayDocs) / float64(weekdays)
	if satAvg >= weekAvg*0.7 {
		t.Errorf("no Saturday dip: sat avg %.1f vs weekday avg %.1f", satAvg, weekAvg)
	}
}

func TestTinyUpdateDay(t *testing.T) {
	cfg := smallConfig()
	cfg.TinyUpdateDay = 3
	batches, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches[3].Docs) >= len(batches[2].Docs)/2 {
		t.Errorf("tiny day not tiny: day3=%d day2=%d", len(batches[3].Docs), len(batches[2].Docs))
	}
}

func TestUpdateCountsMatchDocs(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 2
	batches, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := batches[0]
	update := b.Update()
	// Word counts must sum to total postings of the batch, be sorted, and
	// match the per-word postings lists.
	var total, fromDocs int
	lastWord := WordID(0)
	for i, wc := range update {
		if i > 0 && wc.Word <= lastWord {
			t.Fatalf("update not sorted at %d", i)
		}
		lastWord = wc.Word
		total += wc.Count
		got := 0
		for _, d := range b.Docs {
			if _, ok := slices.BinarySearch(d.Words, wc.Word); ok {
				got++
			}
		}
		if got != wc.Count {
			t.Fatalf("word %d: postings %d != count %d", wc.Word, got, wc.Count)
		}
	}
	for _, d := range b.Docs {
		fromDocs += len(d.Words)
	}
	if total != fromDocs {
		t.Fatalf("update postings %d != doc postings %d", total, fromDocs)
	}
}

func TestStatsZipfShape(t *testing.T) {
	batches, err := GenerateAll(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := ComputeStats(batches)
	if s.TotalWords < 10_000 {
		t.Fatalf("vocabulary too small: %d", s.TotalWords)
	}
	// The paper's Table 1: top 2% of words hold the vast majority of
	// postings. Require at least 85% at full scale.
	if s.FrequentShare < 0.85 {
		t.Errorf("frequent share %.2f < 0.85; corpus not Zipf-shaped", s.FrequentShare)
	}
	// And the average list length is in the paper's two-digit range.
	if s.AvgPostingsPerWord < 10 || s.AvgPostingsPerWord > 99 {
		t.Errorf("avg postings per word %.1f outside the paper's range", s.AvgPostingsPerWord)
	}
	if s.FrequentWords+s.InfrequentWords != s.TotalWords {
		t.Error("word partition does not sum")
	}
	if s.AvgPostingsPerWord <= 1 {
		t.Errorf("avg postings per word %.2f suspiciously low", s.AvgPostingsPerWord)
	}
	out := s.String()
	for _, want := range []string{"Total Words", "Postings for Frequent Words", "Documents"} {
		if !strings.Contains(out, want) {
			t.Errorf("Stats.String missing %q", want)
		}
	}
}

func TestNewWordsKeepArriving(t *testing.T) {
	batches, err := GenerateAll(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[WordID]bool{}
	for i, b := range batches {
		newWords := 0
		for _, wc := range b.Update() {
			if !seen[wc.Word] {
				newWords++
				seen[wc.Word] = true
			}
		}
		if i >= 1 && newWords == 0 {
			t.Errorf("day %d introduced no new words", i)
		}
	}
}

func TestWordStringBijective(t *testing.T) {
	seen := map[string]WordID{}
	for w := WordID(0); w < 50_000; w++ {
		s := WordString(w)
		if prev, dup := seen[s]; dup {
			t.Fatalf("WordString collision: %d and %d both map to %q", prev, w, s)
		}
		seen[s] = w
	}
}

func TestQuickWordStringLowercase(t *testing.T) {
	f := func(w uint32) bool {
		s := WordString(WordID(w))
		if s == "" {
			return false
		}
		for _, r := range s {
			if r < 'a' || r > 'z' {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDocTextRoundTripsThroughLexer(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 1
	batches, err := GenerateAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := batches[0].Docs[0]
	text := DocText(d, 0)
	tokens := lexer.Tokenize(text, lexer.Options{})
	want := map[string]bool{}
	for _, w := range d.Words {
		want[WordString(w)] = true
	}
	if len(tokens) != len(want) {
		t.Fatalf("lexer found %d tokens, want %d (%v)", len(tokens), len(want), tokens)
	}
	for _, tok := range tokens {
		if !want[tok] {
			t.Errorf("unexpected token %q", tok)
		}
	}
}

func BenchmarkGenerateDay(b *testing.B) {
	cfg := DefaultConfig()
	g, err := NewGenerator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Next() == nil {
			b.StopTimer()
			g, _ = NewGenerator(cfg)
			b.StartTimer()
		}
	}
}

func TestScaledClamps(t *testing.T) {
	cfg := DefaultConfig().Scaled(0.0001)
	if cfg.DocsPerDay < 1 {
		t.Fatalf("DocsPerDay = %d", cfg.DocsPerDay)
	}
	up := DefaultConfig().Scaled(2)
	if up.DocsPerDay != DefaultConfig().DocsPerDay*2 {
		t.Fatalf("scale-up DocsPerDay = %d", up.DocsPerDay)
	}
}

func TestDocTextLineWrapping(t *testing.T) {
	words := make([]WordID, 200)
	for i := range words {
		words[i] = WordID(i)
	}
	text := DocText(Document{ID: 1, Words: words}, 0)
	for i, line := range strings.Split(text, "\n") {
		if len(line) > 80 {
			t.Fatalf("line %d too long: %d chars", i, len(line))
		}
	}
}
