package dualindex_test

import (
	"fmt"
	"log"

	"dualindex"
)

// The minimal lifecycle: add documents, flush one incremental batch, query.
func Example() {
	eng, err := dualindex.Open(dualindex.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	eng.AddDocument("the quick brown fox")
	eng.AddDocument("the lazy dog")
	if _, err := eng.FlushBatch(); err != nil {
		log.Fatal(err)
	}

	docs, err := eng.SearchBoolean("quick and fox")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(docs)
	// Output: [1]
}

// Boolean queries support and/or/not, parentheses and truncation.
func ExampleEngine_SearchBoolean() {
	eng, _ := dualindex.Open(dualindex.Options{})
	defer eng.Close()
	eng.AddDocument("cats chase mice")
	eng.AddDocument("dogs chase cats")
	eng.AddDocument("mice fear nothing")
	eng.FlushBatch()

	docs, _ := eng.SearchBoolean("(cats or mice) and not dogs")
	fmt.Println(docs)
	docs, _ = eng.SearchBoolean("cha*") // truncation over the sorted vocabulary
	fmt.Println(docs)
	// Output:
	// [1 3]
	// [1 2]
}

// Vector-space queries rank by tf·idf; rarer words weigh more.
func ExampleEngine_SearchVector() {
	eng, _ := dualindex.Open(dualindex.Options{})
	defer eng.Close()
	eng.AddDocument("inverted lists on disk")
	eng.AddDocument("inverted index structures")
	eng.AddDocument("cooking with garlic")
	eng.FlushBatch()

	matches, _ := eng.SearchVector("inverted lists", 2)
	for _, m := range matches {
		fmt.Println(m.Doc)
	}
	// Output:
	// 1
	// 2
}

// Choosing a policy trades update speed against query locality.
func ExampleOptions_policies() {
	pol := dualindex.PolicyFastQuery // whole style: every list one seek
	eng, _ := dualindex.Open(dualindex.Options{Policy: &pol})
	defer eng.Close()
	eng.AddDocument("a document")
	eng.FlushBatch()
	fmt.Println(eng.Stats().Batches)
	// Output: 1
}

// With KeepDocuments, phrase/proximity/region conditions verify against the
// stored text.
func ExampleEngine_SearchPhrase() {
	eng, _ := dualindex.Open(dualindex.Options{KeepDocuments: true})
	defer eng.Close()
	eng.AddDocument("the index is updated in place")
	eng.AddDocument("place the update in the index")
	eng.FlushBatch()

	docs, _ := eng.SearchPhrase("updated in place")
	fmt.Println(docs)
	// Output: [1]
}
