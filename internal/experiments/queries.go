package experiments

import (
	"math/rand"
	"slices"
	"sort"

	"dualindex/internal/longlist"
	"dualindex/internal/postings"
)

// QueryWorkloadRow reports modelled query cost for one policy under the two
// retrieval models the paper distinguishes (§5.2.1): "for a typical boolean
// IRM, a query contains a few words and the words tend to be the less
// frequently appearing words ... for a typical vector space IRM, the query
// often contains many words and the words tend to be frequently appearing
// words."
type QueryWorkloadRow struct {
	Policy string
	// BooleanReads is the average disk reads per boolean query (2-10 words
	// drawn uniformly from the vocabulary — overwhelmingly infrequent
	// words, mostly served from the in-memory buckets).
	BooleanReads float64
	// BooleanBucketHits is the average fraction of a boolean query's words
	// answered from bucket memory.
	BooleanBucketHits float64
	// VectorReads is the average disk reads per vector query (120 words
	// drawn by document frequency — mostly frequent words with long lists).
	VectorReads float64
}

// QueryWorkloads measures both workloads against the final index of each
// figure policy. Word frequencies come from the generated corpus itself, so
// the query distribution matches the paper's assumption that vector queries
// "approximate the frequency of words in documents".
func (e *Env) QueryWorkloads(queries int) ([]QueryWorkloadRow, error) {
	freqWords, freqCum, allWords := e.wordDistribution()
	var rows []QueryWorkloadRow
	for _, p := range []longlist.Policy{
		longlist.UpdateOptimized(),
		longlist.NewRecommended(),
		longlist.FillRecommended(),
		longlist.QueryOptimized(),
	} {
		r, err := e.RunPolicy(p)
		if err != nil {
			return nil, err
		}
		row := QueryWorkloadRow{Policy: p.String()}
		rng := rand.New(rand.NewSource(42))

		// Boolean workload: 2-10 uniformly drawn words.
		var boolReads, bucketHits, boolWords float64
		for q := 0; q < queries; q++ {
			n := rng.Intn(9) + 2
			for i := 0; i < n; i++ {
				w := allWords[rng.Intn(len(allWords))]
				boolWords++
				if chunks := len(r.Directory().Chunks(w)); chunks > 0 {
					boolReads += float64(chunks)
				} else {
					bucketHits++
				}
			}
		}
		row.BooleanReads = boolReads / float64(queries)
		row.BooleanBucketHits = bucketHits / boolWords

		// Vector workload: 120 words drawn by document frequency.
		var vecReads float64
		for q := 0; q < queries; q++ {
			for i := 0; i < 120; i++ {
				w := sampleByFreq(rng, freqWords, freqCum)
				vecReads += float64(len(r.Directory().Chunks(w)))
			}
		}
		row.VectorReads = vecReads / float64(queries)
		rows = append(rows, row)
	}
	return rows, nil
}

// wordDistribution derives the corpus's word document-frequencies: the
// sampling weights of the vector workload and the uniform pool of the
// boolean workload.
func (e *Env) wordDistribution() (words []postings.WordID, cum []int64, all []postings.WordID) {
	freq := map[postings.WordID]int64{}
	for _, b := range e.Batches {
		for _, d := range b.Docs {
			for _, w := range d.Words {
				freq[w]++
			}
		}
	}
	words = make([]postings.WordID, 0, len(freq))
	for w := range freq {
		words = append(words, w)
	}
	slices.Sort(words)
	cum = make([]int64, len(words))
	var sum int64
	for i, w := range words {
		sum += freq[w]
		cum[i] = sum
	}
	return words, cum, words
}

func sampleByFreq(rng *rand.Rand, words []postings.WordID, cum []int64) postings.WordID {
	total := cum[len(cum)-1]
	target := rng.Int63n(total)
	i := sort.Search(len(cum), func(i int) bool { return cum[i] > target })
	return words[i]
}
