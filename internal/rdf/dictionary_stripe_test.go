package rdf

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// TestDictionaryStripedConcurrentStress hammers the striped dictionary
// with parallel Encode/Lookup/Term/ForEach/Len. Run with -race.
func TestDictionaryStripedConcurrentStress(t *testing.T) {
	d := NewDictionary()
	const goroutines = 8
	const terms = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < terms; i++ {
				// Every goroutine encodes the same term set, so stripes
				// see heavy hit-path traffic plus racing first inserts.
				iri := NewIRI(fmt.Sprintf("http://example.org/r%d", i))
				lit := NewLangLiteral(fmt.Sprintf("label %d", i), "en")
				blank := NewBlank(fmt.Sprintf("b%d", i))
				id := d.Encode(iri)
				d.Encode(lit)
				d.Encode(blank)
				if got, ok := d.Lookup(iri); !ok || got != id {
					t.Errorf("Lookup(%v) = (%d,%v), want (%d,true)", iri, got, ok, id)
					return
				}
				if term, ok := d.Term(id); !ok || term != iri {
					t.Errorf("Term(%d) = (%v,%v), want %v", id, term, ok, iri)
					return
				}
				if g == 0 && i%50 == 0 {
					seen := 0
					d.ForEach(func(ID, Term) bool { seen++; return true })
					if seen > d.Len() {
						t.Errorf("ForEach visited %d terms, Len() = %d", seen, d.Len())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// Every goroutine encoded the same terms: exactly terms×3 beyond the
	// well-known vocabulary.
	base := NewDictionary().Len()
	if got := d.Len(); got != base+terms*3 {
		t.Fatalf("Len = %d, want %d (duplicate IDs assigned under contention?)", got, base+terms*3)
	}

	// All IDs must be distinct and resolvable.
	seen := make(map[ID]Term)
	d.ForEach(func(id ID, term Term) bool {
		if prev, dup := seen[id]; dup {
			t.Fatalf("ID %d assigned to both %v and %v", id, prev, term)
		}
		seen[id] = term
		if got, ok := d.Lookup(term); !ok || got != id {
			t.Fatalf("Lookup(%v) = (%d,%v), want (%d,true)", term, got, ok, id)
		}
		return true
	})
	if len(seen) != d.Len() {
		t.Fatalf("ForEach visited %d terms, Len() = %d", len(seen), d.Len())
	}
}

// TestDictionaryForEachOrderReproducesIDs is the determinism property
// snapshot persistence relies on: re-encoding the terms of ForEach, in
// ForEach order, into a fresh dictionary must reproduce every ID exactly
// — even when the source dictionary was populated concurrently.
func TestDictionaryForEachOrderReproducesIDs(t *testing.T) {
	src := NewDictionary()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				src.Encode(NewIRI(fmt.Sprintf("http://example.org/g%d/i%d", g, i)))
				src.Encode(NewTypedLiteral(fmt.Sprintf("%d", i*g), "http://www.w3.org/2001/XMLSchema#integer"))
			}
		}(g)
	}
	wg.Wait()

	reload := NewDictionary()
	src.ForEach(func(want ID, term Term) bool {
		if got := reload.Encode(term); got != want {
			t.Fatalf("re-encoding %v in ForEach order gave ID %d, want %d", term, got, want)
		}
		return true
	})
	if reload.Len() != src.Len() {
		t.Fatalf("reload has %d terms, source %d", reload.Len(), src.Len())
	}
}

// TestDictionaryStringEqualityContract pins the documented contract:
// terms with equal String renderings get the same ID, even for hand-built
// Term structs the constructors would never produce (e.g. a literal with
// both Lang and Datatype set, which String renders with the Lang only).
func TestDictionaryStringEqualityContract(t *testing.T) {
	d := NewDictionary()
	weird := Term{Kind: TermLiteral, Value: "x", Lang: "en", Datatype: "http://www.w3.org/2001/XMLSchema#string"}
	clean := NewLangLiteral("x", "en")
	if weird.String() != clean.String() {
		t.Fatalf("precondition: %q != %q", weird.String(), clean.String())
	}
	id := d.Encode(weird)
	if got := d.Encode(clean); got != id {
		t.Fatalf("String-equal terms got different IDs: %d vs %d", id, got)
	}
	if got, ok := d.Lookup(weird); !ok || got != id {
		t.Fatalf("Lookup(weird) = (%d,%v), want (%d,true)", got, ok, id)
	}
	weirdIRI := Term{Kind: TermIRI, Value: "http://e/a", Lang: "en"}
	idIRI := d.Encode(NewIRI("http://e/a"))
	if got := d.Encode(weirdIRI); got != idIRI {
		t.Fatalf("String-equal IRIs got different IDs: %d vs %d", idIRI, got)
	}
}

// TestDictionaryNoStringKeyOnHitPath pins down that the hit path does
// not build the term's canonical string: an Encode of an already-known
// term must not allocate proportionally to the term's value.
func TestDictionaryNoStringKeyOnHitPath(t *testing.T) {
	d := NewDictionary()
	long := NewIRI("http://example.org/a-very-long-iri-that-would-cost-an-allocation-to-stringify/abcdefghijklmnopqrstuvwxyz")
	d.Encode(long)
	allocs := testing.AllocsPerRun(100, func() {
		d.Encode(long)
	})
	if allocs != 0 {
		t.Fatalf("Encode hit path allocates %.1f times per call, want 0", allocs)
	}
}

func BenchmarkEncodeHit(b *testing.B) {
	d := NewDictionary()
	term := NewIRI("http://example.org/products/widget-0001")
	d.Encode(term)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Encode(term)
	}
}

func BenchmarkEncodeHitParallel(b *testing.B) {
	d := NewDictionary()
	terms := make([]Term, 64)
	for i := range terms {
		terms[i] = NewIRI(fmt.Sprintf("http://example.org/products/widget-%04d", i))
		d.Encode(terms[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d.Encode(terms[i&63])
			i++
		}
	})
}

// benchTermCount is the number of distinct terms the spread benchmarks
// cycle through: enough that the stripes' tables and arenas outgrow the
// cache, so a probe pays for the memory it touches.
const benchTermCount = 1 << 18

// benchTerms returns n distinct terms shaped like BSBM's: product and
// review IRIs, typed integer literals and language-tagged labels.
func benchTerms(n int) []Term {
	const ns = "http://www4.wiwiss.fu-berlin.de/bizer/bsbm/v01/instances/"
	terms := make([]Term, n)
	for i := range terms {
		switch i % 4 {
		case 0:
			terms[i] = NewIRI(fmt.Sprintf("%sdataFromProducer%d/Product%d", ns, i/1000, i))
		case 1:
			terms[i] = NewIRI(fmt.Sprintf("%sdataFromRatingSite%d/Review%d", ns, i/1000, i))
		case 2:
			terms[i] = NewTypedLiteral(strconv.Itoa(i), IRIXSDInteger)
		default:
			terms[i] = NewLangLiteral(fmt.Sprintf("label of item %d", i), "en")
		}
	}
	return terms
}

// BenchmarkEncodeMiss mints benchTermCount distinct terms into a fresh
// dictionary, again and again: every Encode is a miss, and the tables
// grow from their first size to past the cache.
func BenchmarkEncodeMiss(b *testing.B) {
	terms := benchTerms(benchTermCount)
	var d *Dictionary
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(terms) == 0 {
			b.StopTimer()
			d = NewDictionary()
			b.StartTimer()
		}
		d.Encode(terms[i%len(terms)])
	}
}

// BenchmarkEncodeHitSpread re-encodes benchTermCount known terms in a
// shuffled order, so each hit probes a table slot and an arena record
// that are unlikely to be cached.
func BenchmarkEncodeHitSpread(b *testing.B) {
	terms := benchTerms(benchTermCount)
	d := NewDictionary()
	for _, term := range terms {
		d.Encode(term)
	}
	rand.New(rand.NewSource(1)).Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Encode(terms[i%len(terms)])
	}
}
