package rdf

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// checkOracle encodes terms into d one by one and checks every step
// against a map[string]ID oracle keyed by Term.String():
//   - Lookup finds exactly the terms seen so far and never inserts;
//   - Encode returns the oracle's ID for a seen term, and a new term gets
//     the next sequence number of its kind (IDs are dense per kind in
//     first-seen order);
//   - Term(Encode(t)) == canonTerm(t).
//
// At the end ForEach must visit exactly the oracle's terms.
func checkOracle(t testing.TB, d *Dictionary, terms []Term) {
	t.Helper()
	ids := make(map[string]ID)
	var next [3]uint64
	d.ForEach(func(id ID, term Term) bool {
		ids[term.String()] = id
		next[term.Kind]++
		return true
	})
	for i, term := range terms {
		key := term.String()
		want, seen := ids[key]
		n := d.Len()
		got, ok := d.Lookup(term)
		if ok != seen || got != want {
			t.Fatalf("term %d %q: Lookup = (%d,%v), oracle (%d,%v)", i, key, got, ok, want, seen)
		}
		if d.Len() != n {
			t.Fatalf("term %d %q: Lookup inserted", i, key)
		}
		if !seen {
			next[term.Kind]++
			want = makeID(term.Kind, next[term.Kind])
			ids[key] = want
		}
		if got := d.Encode(term); got != want {
			t.Fatalf("term %d %q: Encode = %d, want %d (seen before: %v)", i, key, got, want, seen)
		}
		if back, ok := d.Term(want); !ok || back != canonTerm(term) {
			t.Fatalf("term %d: Term(%d) = (%+v,%v), want %+v", i, want, back, ok, canonTerm(term))
		}
	}
	visited := 0
	d.ForEach(func(id ID, term Term) bool {
		if want, ok := ids[term.String()]; !ok || want != id {
			t.Fatalf("ForEach visited (%d, %v), oracle has (%d,%v)", id, term, want, ok)
		}
		visited++
		return true
	})
	if visited != len(ids) || d.Len() != len(ids) {
		t.Fatalf("ForEach visited %d, Len() = %d, oracle holds %d", visited, d.Len(), len(ids))
	}
}

var (
	// The first language tag and the first datatype share their text, so
	// interning must keep a lang tag and a datatype apart.
	oracleLangs     = []string{"x", "en"}
	oracleDatatypes = []string{"x", IRIXSDInteger}
	// bigValue is longer than an arena chunk.
	bigValue = strings.Repeat("b", chunkSize+1)
)

// oracleTerm builds a term of any kind from a kind selector, an
// annotation selector and a value, including the hand-built lang plus
// datatype combination canonTerm folds.
func oracleTerm(kind, annot byte, value string) Term {
	t := Term{Kind: TermKind(kind % 3), Value: value}
	switch annot % 4 {
	case 1:
		t.Lang = oracleLangs[int(annot/4)%len(oracleLangs)]
	case 2:
		t.Datatype = oracleDatatypes[int(annot/4)%len(oracleDatatypes)]
	case 3:
		t.Lang, t.Datatype = "x", "x"
	}
	return t
}

// TestDictionaryMatchesMapOracle runs seeded random term streams — the
// same value under every kind, lang and datatype annotations with equal
// text, empty and over-chunk-size literals, and enough distinct terms
// to grow every stripe's table several times — against the oracle.
func TestDictionaryMatchesMapOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		terms := make([]Term, 0, 24000)
		for len(terms) < cap(terms) {
			value := fmt.Sprint(rng.Intn(15000))
			switch rng.Intn(1000) {
			case 0, 1, 2, 3, 4, 5, 6, 7, 8, 9:
				value = ""
			case 10:
				value = bigValue + value
			}
			terms = append(terms, oracleTerm(byte(rng.Intn(3)), byte(rng.Intn(8)), value))
		}
		d := NewDictionary()
		checkOracle(t, d, terms)
		for i := range d.stripes {
			if s := &d.stripes[i]; len(s.table) < 512 {
				t.Fatalf("seed %d: stripe %d table has %d slots; want several growths past 64", seed, i, len(s.table))
			}
		}
	}
}

// FuzzDictionary decodes its input into a term stream — per term a kind
// byte (0xff: prefix the value with bigValue), an annotation byte, a
// length byte and that many value bytes — and checks the stream against
// the map oracle.
func FuzzDictionary(f *testing.F) {
	f.Add([]byte("\x00\x00\x01x\x01\x00\x01x\x02\x00\x01x\x02\x01\x01x\x02\x02\x01x"))
	f.Add([]byte("\x02\x00\x00\x02\x03\x01y\x02\x01\x01y\x02\x02\x01y\xff\x00\x01z\x00\x00\x01z"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var terms []Term
		for len(data) >= 3 && len(terms) < 256 {
			kind, annot, n := data[0], data[1], min(int(data[2]), len(data)-3)
			value := string(data[3 : 3+n])
			if kind == 0xff {
				value = bigValue + value
			}
			terms = append(terms, oracleTerm(kind, annot, value))
			data = data[3+n:]
		}
		checkOracle(t, NewDictionary(), terms)
	})
}

// TestDictionaryConcurrentReadersAndAliasing runs overlapping concurrent
// encoders beside goroutines calling Term, ForEachNew and
// ViewAt(...).ForEach, then checks that a view and Term strings captured
// before 100k further inserts read back byte-identical. Run with -race.
func TestDictionaryConcurrentReadersAndAliasing(t *testing.T) {
	d := NewDictionary()
	early := []Term{
		NewIRI("http://example.org/early"),
		NewBlank("early"),
		NewLiteral(""),
		NewLangLiteral("early", "en"),
		NewTypedLiteral("7", IRIXSDInteger),
		NewLiteral(bigValue),
	}
	earlyIDs := make([]ID, len(early))
	captured := make([]Term, len(early))
	for i, term := range early {
		earlyIDs[i] = d.Encode(term)
		captured[i], _ = d.Term(earlyIDs[i])
	}
	iris0, blanks0, lits0 := d.KindCounts()
	view := d.ViewAt(iris0, blanks0, lits0)
	var before []string
	view.ForEach(func(id ID, term Term) bool {
		before = append(before, fmt.Sprint(id, term))
		return true
	})

	const writers, span, distinct = 4, 50000, 125000
	term := func(i int) Term {
		switch i % 3 {
		case 0:
			return NewIRI(fmt.Sprintf("http://example.org/r%d", i))
		case 1:
			return NewBlank(fmt.Sprintf("b%d", i))
		}
		return NewLangLiteral(fmt.Sprintf("label %d", i), oracleLangs[i%2])
	}
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var readers, encoders sync.WaitGroup
	readers.Add(3)
	go func() { // Term on IDs encoded so far.
		defer readers.Done()
		for i := 0; !stopped(); i++ {
			want := term(i % distinct)
			if id, ok := d.Lookup(want); ok {
				if back, ok := d.Term(id); !ok || back != want {
					t.Errorf("Term(%d) = (%v,%v), want %v", id, back, ok, want)
					return
				}
			}
		}
	}()
	go func() { // ForEachNew past the early counts.
		defer readers.Done()
		for !stopped() {
			d.ForEachNew(iris0, blanks0, lits0, func(id ID, got Term) bool {
				if back, ok := d.Term(id); !ok || back != got {
					t.Errorf("ForEachNew gave (%d,%v), Term says (%v,%v)", id, got, back, ok)
				}
				return true
			})
		}
	}()
	go func() { // Views of the current prefix: dense IDs, Len agrees.
		defer readers.Done()
		for !stopped() {
			v := d.ViewAt(d.KindCounts())
			var seen [3]uint64
			v.ForEach(func(id ID, got Term) bool {
				seen[got.Kind]++
				if id != makeID(got.Kind, seen[got.Kind]) {
					t.Errorf("view visited %d for %v, want sequence %d", id, got, seen[got.Kind])
				}
				return true
			})
			if n := int(seen[0] + seen[1] + seen[2]); n != v.Len() {
				t.Errorf("view visited %d terms, Len() = %d", n, v.Len())
			}
		}
	}()
	for g := 0; g < writers; g++ {
		encoders.Add(1)
		go func(first int) {
			defer encoders.Done()
			for i := first; i < first+span; i++ {
				d.Encode(term(i))
			}
		}(g * (distinct - span) / (writers - 1))
	}
	encoders.Wait()
	close(stop)
	readers.Wait()

	if got, want := d.Len(), view.Len()+distinct; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for i, term := range early {
		if captured[i] != term || captured[i].String() != term.String() {
			t.Fatalf("early Term(%d) now reads %+v, want %+v", earlyIDs[i], captured[i], term)
		}
	}
	var after []string
	view.ForEach(func(id ID, term Term) bool {
		after = append(after, fmt.Sprint(id, term))
		return true
	})
	if strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatal("a view captured before the inserts reads back differently after them")
	}
}

// TestDictionaryFingerprintCollisions builds the longest probe chain a
// table can hold: terms that share a stripe, a home slot at the table's
// final size and a fingerprint, so only the arena compare tells them
// apart. Interleaved with fillers of the same stripe that double its
// table twice, and then encoded again, they are checked against the map
// oracle.
func TestDictionaryFingerprintCollisions(t *testing.T) {
	const colliding, fillers, slots = 64, 64, 256
	d := NewDictionary()
	key := func(h uint64) [3]uint64 {
		return [3]uint64{h % dictStripes, h / dictStripes % slots, uint64(fingerprint(h))}
	}
	candidate := func(i int) Term { return oracleTerm(byte(i), 0, "c"+strconv.Itoa(i)) }
	want := key(d.hash(candidate(0)))
	var chain, fill []Term
	for i := 0; len(chain) < colliding || len(fill) < fillers; i++ {
		c := candidate(i)
		switch k := key(d.hash(c)); {
		case k == want && len(chain) < colliding:
			chain = append(chain, c)
		case k[0] == want[0] && k[1] != want[1] && len(fill) < fillers:
			fill = append(fill, c)
		}
	}
	var terms []Term
	for i := range chain {
		terms = append(terms, chain[i], fill[i])
	}
	checkOracle(t, d, append(terms, terms...))
	if s := &d.stripes[want[0]]; len(s.table) != slots {
		t.Fatalf("stripe table has %d slots, want %d after two doublings", len(s.table), slots)
	}
}
