// Package corpus generates a synthetic News text-document database with the
// statistical shape of the corpus used in the paper: 73 daily batches of
// NetNews articles whose word frequencies follow a Zipf distribution, with
// new (previously unseen) words continuing to arrive throughout, a weekly
// volume pattern (Saturdays are the smallest update of the week), and one
// anomalously small update (the paper's day-41 gap caused by an interruption
// in data gathering).
//
// All of the paper's measurements depend only on the distribution of
// inverted-list lengths and on their arrival order, both of which this
// generator reproduces; Table 1's headline property — the top few percent of
// words by frequency account for the vast majority of postings — is verified
// by the package tests.
package corpus

import (
	"fmt"
	"math/rand"
	"slices"

	"dualindex/internal/postings"
)

// WordID identifies a word. The generator numbers words by Zipf rank, which
// mirrors the paper's conversion of words to unique integers ("at this point
// all words in batch updates are converted to unique integers"). It is an
// alias for the index-wide word identifier.
type WordID = postings.WordID

// Document is one synthetic News article: its identifier and its set of
// distinct words (duplicates within a document are dropped, as in the
// paper's invert-index process).
type Document struct {
	ID    postings.DocID
	Words []WordID // sorted, unique
}

// WordCount is the paper's word-occurrence pair: a word and the number of
// documents of a batch that contain it.
type WordCount struct {
	Word  WordID
	Count int
}

// Batch is one day's worth of documents.
type Batch struct {
	Day  int // 0-based day number
	Docs []Document
}

// Update converts the batch into the paper's batch update: the sorted list
// of word-occurrence pairs (Table 3 / Figure 5).
func (b *Batch) Update() []WordCount {
	counts := map[WordID]int{}
	for _, d := range b.Docs {
		for _, w := range d.Words {
			counts[w]++
		}
	}
	out := make([]WordCount, 0, len(counts))
	for w, c := range counts {
		out = append(out, WordCount{Word: w, Count: c})
	}
	sortWordCounts(out)
	return out
}

func sortWordCounts(s []WordCount) {
	slices.SortFunc(s, func(a, b WordCount) int { return int(a.Word) - int(b.Word) })
}

// Config controls corpus generation. Use DefaultConfig (optionally scaled)
// rather than constructing one by hand.
type Config struct {
	Seed        int64
	Days        int     // number of daily batches (paper: 73)
	DocsPerDay  int     // mean weekday documents per batch
	WordsPerDoc int     // mean distinct words per document
	VocabSize   int     // size of the potential vocabulary (Zipf rank space)
	ZipfS       float64 // Zipf exponent for the rare vocabulary (> 1)
	ZipfV       float64 // Zipf value offset (>= 1)
	// CoreVocab is the size of the core vocabulary — the function and
	// common domain words that dominate token mass in English text. Word
	// identifiers below CoreVocab are core words; identifiers in
	// [CoreVocab, VocabSize) are rare words.
	CoreVocab int
	// CoreRate is the probability that a token draw comes from the core
	// vocabulary rather than the rare one.
	CoreRate float64
	// CoreZipfS is the Zipf exponent within the core vocabulary.
	CoreZipfS float64
	// SaturdayFactor scales document volume on day indexes ≡ 5 (mod 7),
	// reproducing the paper's weekly dips in update size.
	SaturdayFactor float64
	// TinyUpdateDay is a day index given an anomalously small update (the
	// paper's day 41); a negative value disables it.
	TinyUpdateDay int
	// NoiseRate is the fraction of document words that are brand-new unique
	// words (misspellings, proper nouns, message identifiers). The paper
	// notes that misspellings are part of the batch updates and that new
	// words keep arriving; this stream gives the corpus the hapax-heavy
	// vocabulary tail real News text has.
	NoiseRate float64
}

// DefaultConfig returns the base experiment configuration: a reduced-scale
// corpus with the same shape as the paper's 73-day News database.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Days:           73,
		DocsPerDay:     600,
		WordsPerDoc:    80,
		VocabSize:      100_000,
		ZipfS:          1.25,
		ZipfV:          1,
		CoreVocab:      2_000,
		CoreRate:       0.85,
		CoreZipfS:      1.15,
		SaturdayFactor: 0.35,
		TinyUpdateDay:  41,
		NoiseRate:      0.01,
	}
}

// Scaled returns a copy of c with document volume multiplied by f.
func (c Config) Scaled(f float64) Config {
	c.DocsPerDay = int(float64(c.DocsPerDay) * f)
	if c.DocsPerDay < 1 {
		c.DocsPerDay = 1
	}
	return c
}

// Generator produces daily batches deterministically from Config.Seed.
type Generator struct {
	cfg       Config
	rng       *rand.Rand
	core      *rand.Zipf // over [0, CoreVocab)
	rare      *rand.Zipf // offset by CoreVocab into [CoreVocab, VocabSize)
	nextDoc   postings.DocID
	nextNoise WordID // next never-before-seen word id (above VocabSize)
	day       int
}

// NewGenerator returns a generator for the given configuration.
func NewGenerator(cfg Config) (*Generator, error) {
	if cfg.Days <= 0 || cfg.DocsPerDay <= 0 || cfg.WordsPerDoc <= 0 {
		return nil, fmt.Errorf("corpus: non-positive size parameter: %+v", cfg)
	}
	if cfg.VocabSize <= 0 {
		return nil, fmt.Errorf("corpus: VocabSize must be positive")
	}
	if cfg.ZipfS <= 1 || cfg.ZipfV < 1 {
		return nil, fmt.Errorf("corpus: need ZipfS > 1 and ZipfV >= 1, got s=%v v=%v", cfg.ZipfS, cfg.ZipfV)
	}
	if cfg.NoiseRate < 0 || cfg.NoiseRate >= 1 {
		return nil, fmt.Errorf("corpus: NoiseRate must be in [0,1), got %v", cfg.NoiseRate)
	}
	if cfg.CoreVocab <= 0 || cfg.CoreVocab >= cfg.VocabSize {
		return nil, fmt.Errorf("corpus: need 0 < CoreVocab < VocabSize, got %d/%d", cfg.CoreVocab, cfg.VocabSize)
	}
	if cfg.CoreRate < 0 || cfg.CoreRate >= 1 || cfg.CoreZipfS <= 1 {
		return nil, fmt.Errorf("corpus: need CoreRate in [0,1) and CoreZipfS > 1, got %v/%v", cfg.CoreRate, cfg.CoreZipfS)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &Generator{
		cfg:       cfg,
		rng:       rng,
		core:      rand.NewZipf(rng, cfg.CoreZipfS, cfg.ZipfV, uint64(cfg.CoreVocab-1)),
		rare:      rand.NewZipf(rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.VocabSize-cfg.CoreVocab-1)),
		nextNoise: WordID(cfg.VocabSize),
	}, nil
}

// Next generates the next daily batch. It returns nil after the configured
// number of days.
func (g *Generator) Next() *Batch {
	if g.day >= g.cfg.Days {
		return nil
	}
	day := g.day
	g.day++

	docs := g.docsForDay(day)
	b := &Batch{Day: day, Docs: make([]Document, 0, docs)}
	for i := 0; i < docs; i++ {
		g.nextDoc++
		b.Docs = append(b.Docs, Document{ID: g.nextDoc, Words: g.docWords()})
	}
	return b
}

func (g *Generator) docsForDay(day int) int {
	n := float64(g.cfg.DocsPerDay)
	// ±20% day-to-day jitter.
	n *= 0.8 + 0.4*g.rng.Float64()
	if day%7 == 5 && g.cfg.SaturdayFactor > 0 {
		n *= g.cfg.SaturdayFactor
	}
	if day == g.cfg.TinyUpdateDay {
		n *= 0.05
	}
	if n < 1 {
		n = 1
	}
	return int(n)
}

// docWords samples the distinct word set of one document. Sampling tokens
// from the Zipf distribution and deduplicating reproduces both the skewed
// document frequencies and the steady arrival of new words: high ranks are
// rare, so previously unseen words keep appearing batch after batch.
func (g *Generator) docWords() []WordID {
	target := g.cfg.WordsPerDoc/2 + g.rng.Intn(g.cfg.WordsPerDoc) // mean ≈ WordsPerDoc
	set := make(map[WordID]struct{}, target)
	// Sample with a bounded number of attempts; a document rarely needs more
	// than 2× draws because only the handful of most frequent ranks repeat.
	for attempts := 0; len(set) < target && attempts < 4*target; attempts++ {
		u := g.rng.Float64()
		switch {
		case u < g.cfg.NoiseRate:
			set[g.nextNoise] = struct{}{}
			g.nextNoise++
		case u < g.cfg.NoiseRate+g.cfg.CoreRate:
			set[WordID(g.core.Uint64())] = struct{}{}
		default:
			set[WordID(g.cfg.CoreVocab)+WordID(g.rare.Uint64())] = struct{}{}
		}
	}
	words := make([]WordID, 0, len(set))
	for w := range set {
		words = append(words, w)
	}
	sortWords(words)
	return words
}

func sortWords(s []WordID) {
	slices.Sort(s)
}

// GenerateAll runs the generator to completion and returns every batch.
func GenerateAll(cfg Config) ([]*Batch, error) {
	g, err := NewGenerator(cfg)
	if err != nil {
		return nil, err
	}
	batches := make([]*Batch, 0, cfg.Days)
	for b := g.Next(); b != nil; b = g.Next() {
		batches = append(batches, b)
	}
	return batches, nil
}
