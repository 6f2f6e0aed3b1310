// Newsdesk: a searchable news archive with stored documents — phrase,
// proximity and region queries verified against original article text, the
// refinement conditions the paper's introduction describes ("requiring that
// cat and dog occur within so many words of each other, or that mouse occur
// within a title region").
package main

import (
	"fmt"
	"log"

	"dualindex"
)

func main() {
	log.SetFlags(0)
	eng, err := dualindex.Open(dualindex.Options{KeepDocuments: true})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	articles := []string{
		"Subject: markets rally on rate cut\n\nstocks climbed sharply as the central bank cut rates",
		"Subject: storm warning issued\n\nthe central weather office issued a severe storm warning",
		"Subject: rates to stay high\n\nanalysts expect the bank to keep rates high this quarter",
		"Subject: local cat show\n\na cat and a dog walked into the annual pet show together",
	}
	for _, a := range articles {
		eng.AddDocument(a)
	}
	if _, err := eng.FlushBatch(); err != nil {
		log.Fatal(err)
	}

	show := func(label string, docs []dualindex.DocID, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-40s → %d article(s)\n", label, len(docs))
		for _, d := range docs {
			text, _, _ := eng.Document(d)
			fmt.Printf("    doc %d: %.50s...\n", d, text)
		}
	}

	docs, err := eng.SearchPhrase("storm warning")
	show(`phrase "storm warning"`, docs, err)

	docs, err = eng.SearchBoolean("cat near/3 dog")
	show(`"cat" within 3 words of "dog"`, docs, err)

	docs, err = eng.SearchBoolean("title:rates")
	show(`"rates" within the title region`, docs, err)

	docs, err = eng.SearchBoolean("central and (bank or weather)")
	show(`boolean "central and (bank or weather)"`, docs, err)

	docs, err = eng.SearchBoolean("rat*")
	show(`truncation "rat*"`, docs, err)
}
