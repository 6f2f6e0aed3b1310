package postings

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func mustList(t *testing.T, docs ...DocID) *List {
	t.Helper()
	return FromDocs(docs)
}

func TestNewListValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewList accepted out-of-order postings")
		}
	}()
	NewList([]Posting{{Doc: 2, Freq: 1}, {Doc: 1, Freq: 1}})
}

func TestNewListAcceptsSorted(t *testing.T) {
	l := NewList([]Posting{{Doc: 1, Freq: 1}, {Doc: 5, Freq: 2}})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestFromDocsSortsAndMergesDuplicates(t *testing.T) {
	l := FromDocs([]DocID{5, 1, 5, 3, 1, 1})
	want := []Posting{{1, 3}, {3, 1}, {5, 2}}
	if l.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(want))
	}
	for i, w := range want {
		if l.Postings()[i] != w {
			t.Errorf("posting %d = %v, want %v", i, l.Postings()[i], w)
		}
	}
}

func TestEmptyList(t *testing.T) {
	var l *List
	if l.Len() != 0 {
		t.Error("nil list Len != 0")
	}
	e := &List{}
	if e.MaxDoc() != 0 {
		t.Error("empty MaxDoc != 0")
	}
	if e.Len() != 0 || len(e.Docs()) != 0 {
		t.Error("empty list not empty")
	}
}

func TestAppendMaintainsOrder(t *testing.T) {
	l := mustList(t, 1, 2, 3)
	if err := l.Append(mustList(t, 4, 5)); err != nil {
		t.Fatalf("valid append failed: %v", err)
	}
	if l.Len() != 5 || l.MaxDoc() != 5 {
		t.Fatalf("after append Len=%d MaxDoc=%d", l.Len(), l.MaxDoc())
	}
}

func TestAppendRejectsOverlap(t *testing.T) {
	l := mustList(t, 1, 2, 3)
	if err := l.Append(mustList(t, 3, 4)); err == nil {
		t.Fatal("append of overlapping docs succeeded")
	}
}

func TestAppendEmpty(t *testing.T) {
	l := mustList(t, 1)
	if err := l.Append(&List{}); err != nil {
		t.Fatalf("append empty: %v", err)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestConcatLeavesInputsUntouched(t *testing.T) {
	a, b := mustList(t, 1, 2, 3), mustList(t, 4, 5)
	c, err := Concat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.Postings(), mustList(t, 1, 2, 3, 4, 5).Postings()) {
		t.Fatalf("Concat = %v", c.Docs())
	}
	if !slices.Equal(a.Postings(), mustList(t, 1, 2, 3).Postings()) || !slices.Equal(b.Postings(), mustList(t, 4, 5).Postings()) {
		t.Fatalf("Concat mutated its inputs: %v, %v", a.Docs(), b.Docs())
	}
	if c, err := Concat(nil, b); err != nil || !slices.Equal(c.Postings(), b.Postings()) || &c.Postings()[0] == &b.Postings()[0] {
		t.Fatalf("Concat(nil, b) = %v, %v; want a copy of b", c.Docs(), err)
	}
	if _, err := Concat(a, mustList(t, 3, 4)); !errors.Is(err, ErrAppendOrder) {
		t.Fatalf("overlapping Concat err = %v, want ErrAppendOrder", err)
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	valid := Encode(nil, mustList(t, 5, 9))
	if l, n, err := Decode(valid); err != nil || n != len(valid) || !slices.Equal(l.Postings(), mustList(t, 5, 9).Postings()) {
		t.Fatalf("Decode(%x) = %v, %d, %v", valid, l.Docs(), n, err)
	}
	for name, buf := range map[string][]byte{
		"overlong count": {0x81, 0x00, 6, 1},
		"overlong gap":   {1, 0x86, 0x00, 1},
		"overlong freq":  {1, 6, 0x81, 0x00},
		"freq over 2^32": binary.AppendUvarint([]byte{1, 6}, 1<<32),
	} {
		if _, _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode(%x) err = %v, want ErrCorrupt", name, buf, err)
		}
	}
}

func TestPushGrowsTail(t *testing.T) {
	l := &List{}
	l.Push(3, 1)
	l.Push(5, 2)
	l.Push(9, 1)
	want := []Posting{{Doc: 3, Freq: 1}, {Doc: 5, Freq: 2}, {Doc: 9, Freq: 1}}
	if got := l.Postings(); len(got) != len(want) {
		t.Fatalf("Postings = %v, want %v", got, want)
	}
	for i, p := range l.Postings() {
		if p != want[i] {
			t.Errorf("Postings[%d] = %v, want %v", i, p, want[i])
		}
	}
}

func TestPushAccumulatesTailFrequency(t *testing.T) {
	// A tokenized document pushes one occurrence at a time; repeated pushes
	// of the tail document must fold into one posting, exactly FromDocs'
	// aggregation.
	l := &List{}
	for _, d := range []DocID{1, 2, 2, 2, 7} {
		l.Push(d, 1)
	}
	want := FromDocs([]DocID{1, 2, 2, 2, 7})
	if !slices.Equal(l.Postings(), want.Postings()) {
		t.Fatalf("pushed list %v, FromDocs %v", l.Postings(), want.Postings())
	}
}

func TestPushRejectsOutOfOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Push did not panic")
		}
	}()
	l := &List{}
	l.Push(5, 1)
	l.Push(4, 1)
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b, want []DocID
	}{
		{[]DocID{1, 2, 3}, []DocID{2, 3, 4}, []DocID{2, 3}},
		{[]DocID{1, 2}, []DocID{3, 4}, nil},
		{nil, []DocID{1}, nil},
		{[]DocID{1, 5, 9}, []DocID{1, 5, 9}, []DocID{1, 5, 9}},
	}
	for _, tt := range tests {
		got := Intersect(FromDocs(tt.a), FromDocs(tt.b))
		if len(got.Docs()) != len(tt.want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", tt.a, tt.b, got.Docs(), tt.want)
			continue
		}
		for i, d := range got.Docs() {
			if d != tt.want[i] {
				t.Errorf("Intersect(%v,%v)[%d] = %d, want %d", tt.a, tt.b, i, d, tt.want[i])
			}
		}
	}
}

func TestUnion(t *testing.T) {
	got := Union(FromDocs([]DocID{1, 3}), FromDocs([]DocID{2, 3, 4}))
	want := []DocID{1, 2, 3, 4}
	if len(got.Docs()) != len(want) {
		t.Fatalf("Union = %v, want %v", got.Docs(), want)
	}
	if got.Postings()[2].Freq != 2 {
		t.Errorf("shared doc freq = %d, want 2", got.Postings()[2].Freq)
	}
}

func TestDifference(t *testing.T) {
	got := Difference(FromDocs([]DocID{1, 2, 3, 4}), FromDocs([]DocID{2, 4, 6}))
	want := []DocID{1, 3}
	docs := got.Docs()
	if len(docs) != len(want) || docs[0] != want[0] || docs[1] != want[1] {
		t.Fatalf("Difference = %v, want %v", docs, want)
	}
}

// filterRef is the reference deletion filter Without must match: keep
// every posting whose document the predicate does not reject, one probe per
// posting.
func filterRef(l *List, deleted func(DocID) bool) *List {
	out := &List{}
	for _, p := range l.Postings() {
		if !deleted(p.Doc) {
			out.ps = append(out.ps, p)
		}
	}
	return out
}

// sortedDocSet draws a sorted, duplicate-free deletion list of up to n
// identifiers in [1, limit].
func sortedDocSet(r *rand.Rand, n int, limit uint32) []DocID {
	set := map[DocID]bool{}
	for i := 0; i < n; i++ {
		set[DocID(r.Uint32()%limit+1)] = true
	}
	out := make([]DocID, 0, len(set))
	for d := range set {
		out = append(out, d)
	}
	slices.Sort(out)
	return out
}

func TestWithoutMatchesFilter(t *testing.T) {
	check := func(name string, l *List, del []DocID) {
		t.Helper()
		set := map[DocID]bool{}
		for _, d := range del {
			set[d] = true
		}
		want := filterRef(l, func(d DocID) bool { return set[d] })
		got, dropped := l.Without(del)
		if !slices.Equal(got.Postings(), want.Postings()) {
			t.Fatalf("%s: Without = %v, want %v", name, got.Docs(), want.Docs())
		}
		if dropped != l.Len()-want.Len() {
			t.Fatalf("%s: dropped %d, want %d", name, dropped, l.Len()-want.Len())
		}
		if (dropped == 0) != (got == l) {
			t.Fatalf("%s: dropped %d but result aliases input = %v", name, dropped, got == l)
		}
	}
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		l := randomList(r, r.Intn(60))
		for i := range l.ps {
			l.ps[i].Freq = uint32(r.Intn(5)) + 1
		}
		limit := uint32(l.MaxDoc()) + 2000
		check("random", l, sortedDocSet(r, r.Intn(80), limit))
	}
	l := NewList([]Posting{{10, 1}, {20, 3}, {30, 2}, {40, 1}})
	check("nil set", l, nil)
	check("empty list", &List{}, []DocID{1, 2})
	check("nil list", nil, []DocID{1, 2})
	check("below range", l, []DocID{1, 5, 9})
	check("above range", l, []DocID{41, 100})
	check("between postings", l, []DocID{11, 25, 39})
	check("all deleted", l, []DocID{10, 20, 30, 40})
	check("first only", l, []DocID{10})
	check("last only", l, []DocID{40})
	check("straddling", l, []DocID{5, 20, 35, 40, 99})
	check("single kept", NewList([]Posting{{7, 2}}), []DocID{6, 8})
	check("single dropped", NewList([]Posting{{7, 2}}), []DocID{7})
}

// TestWithoutAllocations gates Without's cost: a miss returns the list
// itself without allocating, and a hit allocates only the result and its
// presized storage.
func TestWithoutAllocations(t *testing.T) {
	l := randomList(rand.New(rand.NewSource(3)), 500)
	miss := []DocID{l.Postings()[10].Doc + 1, l.Postings()[200].Doc + 1, l.MaxDoc() + 1}
	if a := testing.AllocsPerRun(50, func() { l.Without(miss) }); a != 0 {
		t.Errorf("Without with no hit allocates %.0f, want 0", a)
	}
	hit := []DocID{l.Postings()[0].Doc, l.Postings()[250].Doc, l.MaxDoc()}
	if a := testing.AllocsPerRun(50, func() { l.Without(hit) }); a > 2 {
		t.Errorf("Without with hits allocates %.0f, want at most 2", a)
	}
}

func TestCloneIsDeep(t *testing.T) {
	l := mustList(t, 1, 2)
	c := l.Clone()
	if err := c.Append(mustList(t, 9)); err != nil {
		t.Fatal(err)
	}
	if l.Len() != 2 {
		t.Error("Append to clone mutated original")
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	lists := []*List{
		{},
		mustList(t, 0),
		mustList(t, 0, 1, 2),
		mustList(t, 5, 100, 1_000_000, 4_000_000_000),
		NewList([]Posting{{Doc: 7, Freq: 300}, {Doc: 8, Freq: 1}}),
	}
	for _, l := range lists {
		buf := Encode(nil, l)
		if len(buf) != EncodedSize(l) {
			t.Errorf("EncodedSize = %d, len(Encode) = %d", EncodedSize(l), len(buf))
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if n != len(buf) {
			t.Errorf("Decode consumed %d of %d bytes", n, len(buf))
		}
		if !slices.Equal(got.Postings(), l.Postings()) {
			t.Errorf("roundtrip mismatch: %v vs %v", got.Postings(), l.Postings())
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},        // missing count
		{2, 0},    // zero gap
		{1, 1},    // missing freq
		{5, 1, 1}, // truncated postings
		{0xff},    // incomplete varint
	}
	for i, buf := range cases {
		if _, _, err := Decode(buf); err == nil {
			t.Errorf("case %d: Decode accepted corrupt input %v", i, buf)
		}
	}
}

func randomList(r *rand.Rand, n int) *List {
	docs := make([]DocID, 0, n)
	d := uint32(0)
	for i := 0; i < n; i++ {
		d += uint32(r.Intn(1000)) + 1
		docs = append(docs, DocID(d))
	}
	return FromDocs(docs)
}

func TestQuickCodecRoundtrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomList(r, int(n))
		got, used, err := Decode(Encode(nil, l))
		return err == nil && used == EncodedSize(l) && slices.Equal(got.Postings(), l.Postings())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectCommutes(t *testing.T) {
	f := func(seed int64, n, m uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomList(r, int(n)), randomList(r, int(m))
		return slices.Equal(Intersect(a, b).Postings(), Intersect(b, a).Postings())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionContainsBoth(t *testing.T) {
	f := func(seed int64, n, m uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomList(r, int(n)), randomList(r, int(m))
		u := Union(a, b)
		for _, d := range a.Docs() {
			if !slices.Contains(u.Docs(), d) {
				return false
			}
		}
		for _, d := range b.Docs() {
			if !slices.Contains(u.Docs(), d) {
				return false
			}
		}
		return u.Len() <= a.Len()+b.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickDeMorgan(t *testing.T) {
	// a \ b == a ∩ complement(b), expressed via filterRef.
	f := func(seed int64, n, m uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomList(r, int(n)), randomList(r, int(m))
		d1 := Difference(a, b)
		d2 := filterRef(a, func(doc DocID) bool { return slices.Contains(b.Docs(), doc) })
		return slices.Equal(d1.Postings(), d2.Postings())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAppendEquivalentToUnion(t *testing.T) {
	f := func(seed int64, n, m uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomList(r, int(n))
		// Build b strictly beyond a.
		docs := make([]DocID, 0, m)
		d := uint32(a.MaxDoc())
		for i := 0; i < int(m); i++ {
			d += uint32(r.Intn(100)) + 1
			docs = append(docs, DocID(d))
		}
		b := FromDocs(docs)
		u := Union(a, b)
		c := a.Clone()
		if err := c.Append(b); err != nil {
			return false
		}
		return slices.Equal(c.Postings(), u.Postings())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncode(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	l := randomList(r, 10000)
	buf := make([]byte, 0, EncodedSize(l))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], l)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkDecode(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	l := randomList(r, 10000)
	buf := Encode(nil, l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkIntersect(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, y := randomList(r, 10000), randomList(r, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Intersect(x, y)
	}
}
