package main

import (
	"bytes"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dualindex"
)

// TestRunPositionalQueries builds a small file-backed index with stored
// documents and runs every kind of query the command answers: a boolean
// query, proximity, a title region and a phrase as arguments, a ranked -q
// query and -vector. A bag of words without -q is refused.
func TestRunPositionalQueries(t *testing.T) {
	dir := t.TempDir()
	eng, err := dualindex.Open(dualindex.Options{Dir: dir, Backend: "file", KeepDocuments: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"Subject: rates climb\n\ncat chases dog daily",
		"Subject: storm warning\n\nwhite mouse hides from cat",
		"Subject: mouse rates\n\ncat sleeps while neighbours walk past quietly beside dog",
	} {
		eng.AddDocument(text)
	}
	if _, err := eng.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	docRe := regexp.MustCompile(`doc (\d+)`)
	for _, tt := range []struct {
		args []string
		want []string // printed document ids, in order
	}{
		{[]string{"cat and dog"}, []string{"1", "3"}},
		{[]string{"-docs", "cat near/3 dog"}, []string{"1"}},
		{[]string{"-docs", "title:mouse"}, []string{"3"}},
		{[]string{"-docs", `"white mouse"`}, []string{"2"}},
		{[]string{"-docs", "cat", "near/3", "dog", "or", "title:mouse"}, []string{"1", "3"}},
		{[]string{"-q", "cat dog", "-k", "2"}, []string{"1", "3"}},
		{[]string{"-vector", "-k", "5", "white mouse"}, []string{"2", "3"}},
	} {
		var out bytes.Buffer
		args := append([]string{"-index", dir}, tt.args...)
		if err := run(args, &out); err != nil {
			t.Errorf("search %s: %v", strings.Join(tt.args, " "), err)
			continue
		}
		var got []string
		for _, m := range docRe.FindAllStringSubmatch(out.String(), -1) {
			got = append(got, m[1])
		}
		if !slices.Equal(got, tt.want) {
			t.Errorf("search %s printed docs %v, want %v\n%s", strings.Join(tt.args, " "), got, tt.want, out.String())
		}
	}

	var out bytes.Buffer
	if err := run([]string{"-index", dir, "cat dog"}, &out); err == nil {
		t.Errorf("unranked bag of words accepted:\n%s", out.String())
	}
	if err := run([]string{"-index", dir, "cat near/3 dog"}, &out); err == nil {
		t.Error("proximity query without -docs accepted")
	}
}
