package postings

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// decode is the whole-list decoder behind the block codecs: one encoded
// list read from the front of buf.
func decode(buf []byte) (*List, int, error) {
	docs, n, err := decodeAppend(nil, buf)
	if err != nil {
		return nil, 0, err
	}
	return &List{docs: docs}, n, nil
}

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
	NewList([]DocID{2, 1})
}

func TestNewListAcceptsSorted(t *testing.T) {
	l := NewList([]DocID{1, 5})
	if l.Len() != 2 {
		t.Fatalf("Len = %d, want 2", l.Len())
	}
}

func TestFromDocsSortsAndMergesDuplicates(t *testing.T) {
	l := FromDocs([]DocID{5, 1, 5, 3, 1, 1})
	if want := []DocID{1, 3, 5}; !slices.Equal(l.Docs(), want) {
		t.Fatalf("FromDocs = %v, want %v", l.Docs(), want)
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

func TestDecodeRejectsNonCanonical(t *testing.T) {
	valid := Encode(nil, mustList(t, 5, 9))
	if l, n, err := decode(valid); err != nil || n != len(valid) || !slices.Equal(l.Docs(), mustList(t, 5, 9).Docs()) {
		t.Fatalf("decode(%x) = %v, %d, %v", valid, l.Docs(), n, err)
	}
	for name, buf := range map[string][]byte{
		"overlong count": {0x81, 0x00, 6, 1},
		"overlong gap":   {1, 0x86, 0x00, 1},
		"overlong freq":  {1, 6, 0x81, 0x00},
		"freq over 2^32": binary.AppendUvarint([]byte{1, 6}, 1<<32),
		"freq 0":         {1, 6, 0},
		"freq 2":         {1, 6, 2},
	} {
		if _, _, err := decode(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decode(%x) err = %v, want ErrCorrupt", name, buf, err)
		}
	}
}

func TestPushGrowsTail(t *testing.T) {
	l := &List{}
	l.Push(0)
	l.Push(5)
	l.Push(9)
	if want := []DocID{0, 5, 9}; !slices.Equal(l.Docs(), want) {
		t.Fatalf("Docs = %v, want %v", l.Docs(), want)
	}
}

func TestPushRejectsOutOfOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order Push did not panic")
		}
	}()
	l := &List{}
	l.Push(5)
	l.Push(4)
}

// TestPushRejectsRepeatedTail: the tail document pushed again panics — a
// run holds each document once, so callers drop repeats before pushing.
func TestPushRejectsRepeatedTail(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Push of the tail document again did not panic")
		}
	}()
	l := &List{}
	l.Push(5)
	l.Push(5)
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
	if want := []DocID{1, 2, 3, 4}; !slices.Equal(got.Docs(), want) {
		t.Fatalf("Union = %v, want %v", got.Docs(), want)
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
	for _, d := range l.Docs() {
		if !deleted(d) {
			out.docs = append(out.docs, d)
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
		if !slices.Equal(got.Docs(), want.Docs()) {
			t.Fatalf("%s: Without = %v, want %v", name, got.Docs(), want.Docs())
		}
		if dropped != l.Len()-want.Len() {
			t.Fatalf("%s: dropped %d, want %d", name, dropped, l.Len()-want.Len())
		}
		if (dropped == 0) != (got == l) {
			t.Fatalf("%s: dropped %d but result aliases input = %v", name, dropped, got == l)
		}
		// Drop filters a private copy in place to the same answer.
		own := l.Clone()
		if n := own.Drop(del); n != dropped || !slices.Equal(own.Docs(), want.Docs()) {
			t.Fatalf("%s: Drop = %v (%d), want %v (%d)", name, own.Docs(), n, want.Docs(), dropped)
		}
	}
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 2000; iter++ {
		l := randomList(r, r.Intn(60))
		limit := uint32(l.MaxDoc()) + 2000
		check("random", l, sortedDocSet(r, r.Intn(80), limit))
	}
	l := NewList([]DocID{10, 20, 30, 40})
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
	check("single kept", NewList([]DocID{7}), []DocID{6, 8})
	check("single dropped", NewList([]DocID{7}), []DocID{7})
}

// TestWithoutAllocations gates Without's cost: a miss returns the list
// itself without allocating, and a hit allocates only the result and its
// presized storage.
func TestWithoutAllocations(t *testing.T) {
	l := randomList(rand.New(rand.NewSource(3)), 500)
	miss := []DocID{l.Docs()[10] + 1, l.Docs()[200] + 1, l.MaxDoc() + 1}
	if a := testing.AllocsPerRun(50, func() { l.Without(miss) }); a != 0 {
		t.Errorf("Without with no hit allocates %.0f, want 0", a)
	}
	hit := []DocID{l.Docs()[0], l.Docs()[250], l.MaxDoc()}
	if a := testing.AllocsPerRun(50, func() { l.Without(hit) }); a > 2 {
		t.Errorf("Without with hits allocates %.0f, want at most 2", a)
	}
	copies := testing.AllocsPerRun(50, func() { l.Clone() })
	if a := testing.AllocsPerRun(50, func() { l.Clone().Drop(hit) }); a != copies {
		t.Errorf("Drop with hits allocates %.0f beyond the copy it filters", a-copies)
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
		mustList(t, 7, 8),
	}
	for _, l := range lists {
		buf := Encode(nil, l)
		if len(buf) != EncodedSize(l) {
			t.Errorf("EncodedSize = %d, len(Encode) = %d", EncodedSize(l), len(buf))
		}
		got, n, err := decode(buf)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if n != len(buf) {
			t.Errorf("Decode consumed %d of %d bytes", n, len(buf))
		}
		if !slices.Equal(got.Docs(), l.Docs()) {
			t.Errorf("roundtrip mismatch: %v vs %v", got.Docs(), l.Docs())
		}
	}
}

// TestBodiesConcatenate pins the body helpers to Encode: a list's body
// followed by the body of later postings, taken from the list's last
// posting, is the joined list's body, byte for byte; ScanBody and
// DecodeBody read it back, and BodySize predicts every body's length.
func TestBodiesConcatenate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		joined := randomList(r, r.Intn(40)+1)
		docs := joined.Docs()
		cut := r.Intn(len(docs)) + 1
		head, tail := NewList(docs[:cut]), NewList(docs[cut:])

		body := AppendBody(nil, 0, head)
		base := uint64(head.MaxDoc()) + 1
		body = AppendBody(body, base, tail)
		whole := Encode(nil, joined)
		if want := whole[uvarintLen(uint64(joined.Len())):]; !bytes.Equal(body, want) {
			t.Fatalf("%v + %v: body %x, want %x", head.Docs(), tail.Docs(), body, want)
		}
		if got := BodySize(0, head) + BodySize(base, tail); got != len(body) {
			t.Fatalf("BodySize = %d, want %d", got, len(body))
		}
		n, last, err := ScanBody(body, joined.Len())
		if err != nil || n != len(body) || last != joined.MaxDoc() {
			t.Fatalf("ScanBody = %d, %d, %v; want %d, %d", n, last, err, len(body), joined.MaxDoc())
		}
		if got, err := DecodeBody(body, joined.Len()); err != nil || !slices.Equal(got.Docs(), docs) {
			t.Fatalf("DecodeBody = %v, %v; want %v", got.Docs(), err, docs)
		}
		if first := BodyFirst(body); first != docs[0] {
			t.Fatalf("BodyFirst = %d, want %d", first, docs[0])
		}
		// A body one posting short of its count is refused by both readers.
		if _, _, err := ScanBody(body, joined.Len()+1); err == nil {
			t.Fatal("ScanBody accepted a short body")
		}
		if _, err := DecodeBody(body, joined.Len()+1); err == nil {
			t.Fatal("DecodeBody accepted a short body")
		}
	}
	body := AppendBody(nil, 0, NewList([]DocID{1, 5, 300}))
	if a := testing.AllocsPerRun(20, func() { ScanBody(body, 3) }); a != 0 {
		t.Errorf("ScanBody allocates %.0f times, want 0", a)
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
		if _, _, err := decode(buf); err == nil {
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
		got, used, err := decode(Encode(nil, l))
		return err == nil && used == EncodedSize(l) && slices.Equal(got.Docs(), l.Docs())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectCommutes(t *testing.T) {
	f := func(seed int64, n, m uint8) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomList(r, int(n)), randomList(r, int(m))
		return slices.Equal(Intersect(a, b).Docs(), Intersect(b, a).Docs())
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
		return slices.Equal(d1.Docs(), d2.Docs())
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
		return slices.Equal(c.Docs(), u.Docs())
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
		if _, _, err := decode(buf); err != nil {
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
