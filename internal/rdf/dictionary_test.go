package rdf

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestDictionaryWellKnownIDs(t *testing.T) {
	d := NewDictionary()
	cases := []struct {
		iri  string
		want ID
	}{
		{IRIType, IDType},
		{IRIProperty, IDProperty},
		{IRIXMLLiteral, IDXMLLiteral},
		{IRIStatement, IDStatement},
		{IRISubClassOf, IDSubClassOf},
		{IRISubPropertyOf, IDSubPropertyOf},
		{IRIDomain, IDDomain},
		{IRIRange, IDRange},
		{IRIResource, IDResource},
		{IRIClass, IDClass},
		{IRILiteral, IDLiteralClass},
		{IRIDatatype, IDDatatype},
		{IRIContainerMembershipProp, IDContainerMembershipProp},
		{IRIMember, IDMember},
		{IRILabel, IDLabel},
		{IRIComment, IDComment},
		{IRISeeAlso, IDSeeAlso},
		{IRIIsDefinedBy, IDIsDefinedBy},
		{IRIXSDString, IDXSDString},
		{IRIXSDInteger, IDXSDInteger},
	}
	for _, c := range cases {
		if got := d.EncodeIRI(c.iri); got != c.want {
			t.Errorf("EncodeIRI(%s) = %d, want %d", c.iri, got, c.want)
		}
	}
	if d.Len() != len(wellKnown) {
		t.Fatalf("Len() = %d after only well-known terms, want %d", d.Len(), len(wellKnown))
	}
	if first := d.EncodeIRI("http://example.org/custom"); first != FirstCustomID {
		t.Fatalf("first custom ID = %d, want %d", first, FirstCustomID)
	}
}

func TestDictionaryEncodeIsStable(t *testing.T) {
	d := NewDictionary()
	a := d.Encode(NewIRI("http://e/a"))
	b := d.Encode(NewIRI("http://e/b"))
	if a == b {
		t.Fatal("distinct terms share an ID")
	}
	if again := d.Encode(NewIRI("http://e/a")); again != a {
		t.Fatalf("re-encoding changed ID: %d vs %d", again, a)
	}
}

func TestDictionaryKindsDoNotCollide(t *testing.T) {
	d := NewDictionary()
	iri := d.Encode(NewIRI("x"))
	blank := d.Encode(NewBlank("x"))
	lit := d.Encode(NewLiteral("x"))
	if iri == blank || blank == lit || iri == lit {
		t.Fatalf("IDs collide across kinds: %d %d %d", iri, blank, lit)
	}
	if iri.Kind() != TermIRI || blank.Kind() != TermBlank || lit.Kind() != TermLiteral {
		t.Fatal("kind bits wrong")
	}
}

func TestDictionaryLookupDoesNotInsert(t *testing.T) {
	d := NewDictionary()
	if _, ok := d.Lookup(NewIRI("http://e/absent")); ok {
		t.Fatal("Lookup found an absent term")
	}
	if d.Len() != len(wellKnown) {
		t.Fatal("Lookup inserted a term")
	}
	id := d.Encode(NewIRI("http://e/present"))
	got, ok := d.Lookup(NewIRI("http://e/present"))
	if !ok || got != id {
		t.Fatalf("Lookup after Encode = (%d,%v), want (%d,true)", got, ok, id)
	}
}

func TestDictionaryTermRoundTrip(t *testing.T) {
	d := NewDictionary()
	terms := []Term{
		NewIRI("http://e/a"),
		NewBlank("node1"),
		NewLiteral("plain"),
		NewLangLiteral("hello", "en"),
		NewTypedLiteral("1", IRIXSDInteger),
	}
	for _, term := range terms {
		id := d.Encode(term)
		back, ok := d.Term(id)
		if !ok {
			t.Fatalf("Term(%d) not found for %v", id, term)
		}
		if back != term {
			t.Fatalf("round trip changed term: %+v -> %+v", term, back)
		}
	}
}

func TestDictionaryTermUnknown(t *testing.T) {
	d := NewDictionary()
	if _, ok := d.Term(Any); ok {
		t.Fatal("Term(Any) should not resolve")
	}
	if _, ok := d.Term(makeID(TermIRI, 1<<30-1)); ok {
		t.Fatal("unminted IRI ID should not resolve")
	}
	if _, ok := d.Term(makeID(TermLiteral, 1)); ok {
		t.Fatal("literal ID with empty pool should not resolve")
	}
	// Kind bits 11 name no term, though their sequence number is a
	// minted IRI's (rdf:type is IRI 1).
	bad := kindMask | IDType
	if term, ok := d.Term(bad); ok {
		t.Fatalf("Term(%#x) = %v, true; kind bits 11 should not resolve", uint32(bad), term)
	}
	if _, ok := d.DecodeTriple(T(IDType, IDType, bad)); ok {
		t.Fatal("DecodeTriple resolved an object of kind bits 11")
	}
	if got, want := d.Format(T(bad, IDType, IDType)), fmt.Sprintf("?%d", bad); !strings.HasPrefix(got, want+" ") {
		t.Fatalf("Format = %q, want it to start with %q", got, want)
	}
}

func TestDictionaryEncodeStatementDecodeTriple(t *testing.T) {
	d := NewDictionary()
	st := NewStatement(NewIRI("http://e/s"), NewIRI(IRIType), NewIRI("http://e/C"))
	tr := d.EncodeStatement(st)
	if tr.P != IDType {
		t.Fatalf("predicate should reuse well-known ID, got %d", tr.P)
	}
	back, ok := d.DecodeTriple(tr)
	if !ok || back != st {
		t.Fatalf("DecodeTriple = (%v,%v), want (%v,true)", back, ok, st)
	}
	if _, ok := d.DecodeTriple(T(tr.S, tr.P, makeID(TermIRI, 1<<30-1))); ok {
		t.Fatal("DecodeTriple with unknown component should report !ok")
	}
}

func TestDictionaryFormat(t *testing.T) {
	d := NewDictionary()
	tr := d.EncodeStatement(NewStatement(NewIRI("http://e/s"), NewIRI(IRIType), NewLiteral("v")))
	out := d.Format(tr)
	for _, want := range []string{"<http://e/s>", "<" + IRIType + ">", `"v"`} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output %q missing %q", out, want)
		}
	}
	unknown := d.Format(T(makeID(TermIRI, 1<<30-1), IDType, IDClass))
	if !strings.Contains(unknown, "?") {
		t.Errorf("Format of unknown ID should fall back to ?id, got %q", unknown)
	}
}

// Property: encoding any sequence of terms and decoding the resulting IDs
// reproduces the original terms, and equal terms always map to equal IDs.
func TestDictionaryRoundTripProperty(t *testing.T) {
	gen := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		d := NewDictionary()
		ids := make(map[string]ID)
		for i := 0; i < int(n)+1; i++ {
			var term Term
			switch rng.Intn(4) {
			case 0:
				term = NewIRI(fmt.Sprintf("http://e/%d", rng.Intn(20)))
			case 1:
				term = NewBlank(fmt.Sprintf("b%d", rng.Intn(20)))
			case 2:
				term = NewLiteral(fmt.Sprintf("lit%d", rng.Intn(20)))
			default:
				term = NewLangLiteral(fmt.Sprintf("lit%d", rng.Intn(20)), "en")
			}
			id := d.Encode(term)
			if prev, seen := ids[term.String()]; seen && prev != id {
				return false
			}
			ids[term.String()] = id
			back, ok := d.Term(id)
			if !ok || back != term {
				return false
			}
		}
		return true
	}
	if err := quick.Check(gen, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryConcurrentEncode(t *testing.T) {
	d := NewDictionary()
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	results := make([][]ID, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results[g] = make([]ID, perG)
			for i := 0; i < perG; i++ {
				// All goroutines encode the same term set; IDs must agree.
				results[g][i] = d.Encode(NewIRI(fmt.Sprintf("http://e/%d", i)))
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := 0; i < perG; i++ {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d got different ID for term %d", g, i)
			}
		}
	}
	if d.Len() != len(wellKnown)+perG {
		t.Fatalf("Len() = %d, want %d", d.Len(), len(wellKnown)+perG)
	}
}

func TestKindCountsAndForEachNew(t *testing.T) {
	d := NewDictionary()
	iris0, blanks0, lits0 := d.KindCounts()
	if iris0 == 0 {
		t.Fatal("well-known vocabulary missing from KindCounts")
	}
	// Nothing new yet.
	d.ForEachNew(iris0, blanks0, lits0, func(ID, Term) bool {
		t.Fatal("ForEachNew visited a term before anything was added")
		return false
	})

	ids := []ID{
		d.Encode(NewIRI("http://example.org/a")),
		d.Encode(NewBlank("b1")),
		d.Encode(NewLiteral("hello")),
		d.Encode(NewIRI("http://example.org/b")),
	}
	var gotIDs []ID
	d.ForEachNew(iris0, blanks0, lits0, func(id ID, term Term) bool {
		gotIDs = append(gotIDs, id)
		// The reported ID must be the one Encode assigned.
		if again := d.Encode(term); again != id {
			t.Fatalf("ForEachNew reported ID %d for %v, Encode says %d", id, term, again)
		}
		return true
	})
	if len(gotIDs) != len(ids) {
		t.Fatalf("ForEachNew visited %d terms, want %d", len(gotIDs), len(ids))
	}
	// Replaying the delta into a fresh dictionary in visit order must
	// reproduce identical IDs — the property WAL replay relies on.
	fresh := NewDictionary()
	d.ForEachNew(iris0, blanks0, lits0, func(id ID, term Term) bool {
		if got := fresh.Encode(term); got != id {
			t.Fatalf("replaying delta: %v got ID %d, want %d", term, got, id)
		}
		return true
	})
	iris1, blanks1, lits1 := d.KindCounts()
	if iris1 != iris0+2 || blanks1 != blanks0+1 || lits1 != lits0+1 {
		t.Fatalf("KindCounts after adds: %d %d %d (was %d %d %d)",
			iris1, blanks1, lits1, iris0, blanks0, lits0)
	}
	// Marks beyond the current counts are tolerated (concurrent loggers
	// may have raced ahead): no visits, no panic.
	d.ForEachNew(iris1+5, blanks1+5, lits1+5, func(ID, Term) bool {
		t.Fatal("ForEachNew visited with high-water marks beyond the dictionary")
		return false
	})
}
