package query

import (
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// fixture builds a small store: a product catalogue with types and labels.
func fixture(t *testing.T) (*store.Store, *rdf.Dictionary) {
	t.Helper()
	dict := rdf.NewDictionary()
	st := store.New()
	add := func(s, p, o rdf.Term) {
		st.Add(dict.EncodeStatement(rdf.NewStatement(s, p, o)))
	}
	ex := func(n string) rdf.Term { return rdf.NewIRI("http://e/" + n) }
	typeT := rdf.NewIRI(rdf.IRIType)
	label := rdf.NewIRI(rdf.IRILabel)
	add(ex("p1"), typeT, ex("Product"))
	add(ex("p2"), typeT, ex("Product"))
	add(ex("p3"), typeT, ex("Offer"))
	add(ex("p1"), label, rdf.NewLiteral("Widget"))
	add(ex("p2"), label, rdf.NewLiteral("Gadget"))
	add(ex("p1"), ex("madeBy"), ex("acme"))
	add(ex("p2"), ex("madeBy"), ex("acme"))
	add(ex("acme"), label, rdf.NewLiteral("ACME Corp"))
	return st, dict
}

func ex(n string) rdf.Term { return rdf.NewIRI("http://e/" + n) }

func TestExecuteSinglePattern(t *testing.T) {
	st, dict := fixture(t)
	q := Query{Patterns: []Pattern{{V("x"), T(rdf.NewIRI(rdf.IRIType)), T(ex("Product"))}}}
	got, err := Execute(t.Context(), st, dict, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d solutions: %v", len(got), got)
	}
	for _, b := range got {
		if b["x"].Value != "http://e/p1" && b["x"].Value != "http://e/p2" {
			t.Fatalf("unexpected binding %v", b)
		}
	}
}

func TestExecuteJoin(t *testing.T) {
	st, dict := fixture(t)
	// Products made by acme with their labels.
	q := Query{
		Select: []string{"name"},
		Patterns: []Pattern{
			{V("p"), T(rdf.NewIRI(rdf.IRIType)), T(ex("Product"))},
			{V("p"), T(ex("madeBy")), T(ex("acme"))},
			{V("p"), T(rdf.NewIRI(rdf.IRILabel)), V("name")},
		},
	}
	got, err := Execute(t.Context(), st, dict, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	names := map[string]bool{}
	for _, b := range got {
		names[b["name"].Value] = true
		if len(b) != 1 {
			t.Fatalf("projection leaked: %v", b)
		}
	}
	if !names["Widget"] || !names["Gadget"] {
		t.Fatalf("names = %v", names)
	}
}

func TestExecuteVariablePredicate(t *testing.T) {
	st, dict := fixture(t)
	q := Query{Patterns: []Pattern{{T(ex("p1")), V("p"), V("o")}}}
	got, err := Execute(t.Context(), st, dict, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // type, label, madeBy
		t.Fatalf("got %d solutions: %v", len(got), got)
	}
}

func TestExecuteSharedVariableWithinPattern(t *testing.T) {
	dict := rdf.NewDictionary()
	st := store.New()
	st.Add(dict.EncodeStatement(rdf.NewStatement(ex("a"), ex("p"), ex("a"))))
	st.Add(dict.EncodeStatement(rdf.NewStatement(ex("a"), ex("p"), ex("b"))))
	// ?x ?p ?x matches only the reflexive triple.
	got, err := Execute(t.Context(), st, dict, Query{Patterns: []Pattern{{V("x"), V("p"), V("x")}}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["x"].Value != "http://e/a" {
		t.Fatalf("got %v", got)
	}
}

func TestExecuteUnknownTermGivesEmpty(t *testing.T) {
	st, dict := fixture(t)
	got, err := Execute(t.Context(), st, dict, Query{Patterns: []Pattern{
		{V("x"), T(rdf.NewIRI(rdf.IRIType)), T(ex("NoSuchClass"))}}}, nil, nil)
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestExecuteDeduplicatesSolutions(t *testing.T) {
	st, dict := fixture(t)
	// ?p projected alone, but two patterns create two paths to the same
	// solution set.
	q := Query{
		Select: []string{"m"},
		Patterns: []Pattern{
			{V("p"), T(ex("madeBy")), V("m")},
		},
	}
	got, err := Execute(t.Context(), st, dict, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["m"].Value != "http://e/acme" {
		t.Fatalf("got %v", got)
	}
}

func TestExecuteErrors(t *testing.T) {
	st, dict := fixture(t)
	if _, err := Execute(t.Context(), st, dict, Query{}, nil, nil); err == nil {
		t.Fatal("empty BGP accepted")
	}
	q := Query{
		Select:   []string{"nope"},
		Patterns: []Pattern{{V("x"), V("p"), V("o")}},
	}
	if _, err := Execute(t.Context(), st, dict, q, nil, nil); err == nil {
		t.Fatal("unknown projected variable accepted")
	}
}

func TestExecuteDeterministicOrder(t *testing.T) {
	st, dict := fixture(t)
	q := Query{Patterns: []Pattern{{V("x"), T(rdf.NewIRI(rdf.IRIType)), V("c")}}}
	a, _ := Execute(t.Context(), st, dict, q, nil, nil)
	b, _ := Execute(t.Context(), st, dict, q, nil, nil)
	if len(a) != len(b) {
		t.Fatal("nondeterministic result size")
	}
	for i := range a {
		if a[i]["x"] != b[i]["x"] || a[i]["c"] != b[i]["c"] {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestParseSelectBasic(t *testing.T) {
	q, err := ParseSelect(`SELECT ?x WHERE { ?x a <http://e/Product> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || q.Select[0] != "x" || len(q.Patterns) != 1 {
		t.Fatalf("parsed %+v", q)
	}
	if q.Patterns[0].P.Term.Value != rdf.IRIType {
		t.Fatalf("'a' keyword not expanded: %v", q.Patterns[0].P)
	}
}

func TestParseSelectStarAndPrefixes(t *testing.T) {
	q, err := ParseSelect(`
		SELECT * WHERE {
			?x rdfs:label ?name .    # comment
			?x rdf:type owl:Thing .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 0 || len(q.Patterns) != 2 {
		t.Fatalf("parsed %+v", q)
	}
	if q.Patterns[0].P.Term.Value != rdf.IRILabel {
		t.Fatalf("rdfs: prefix wrong: %v", q.Patterns[0].P)
	}
	if q.Patterns[1].O.Term.Value != rdf.OWLNS+"Thing" {
		t.Fatalf("owl: prefix wrong: %v", q.Patterns[1].O)
	}
}

func TestParseSelectLiterals(t *testing.T) {
	q, err := ParseSelect(`SELECT ?x WHERE { ?x rdfs:label "Widget" . ?x ?p "hé\"llo"@fr . ?x ?q "5"^^xsd:integer . }`)
	if err != nil {
		t.Fatal(err)
	}
	if q.Patterns[0].O.Term != rdf.NewLiteral("Widget") {
		t.Fatalf("plain literal: %v", q.Patterns[0].O)
	}
	if q.Patterns[1].O.Term != rdf.NewLangLiteral(`hé"llo`, "fr") {
		t.Fatalf("lang literal: %v", q.Patterns[1].O)
	}
	if q.Patterns[2].O.Term != rdf.NewTypedLiteral("5", rdf.IRIXSDInteger) {
		t.Fatalf("typed literal: %v", q.Patterns[2].O)
	}
}

func TestParseSelectErrors(t *testing.T) {
	for _, bad := range []string{
		``,
		`WHERE { ?x ?p ?o . }`,
		`SELECT WHERE { ?x ?p ?o . }`,
		`SELECT ?x { ?x ?p ?o . }`,
		`SELECT ?x WHERE { ?x ?p ?o }`,        // missing dot
		`SELECT ?x WHERE { }`,                 // empty BGP
		`SELECT ?x WHERE { "lit" ?p ?o . }`,   // literal subject
		`SELECT ?x WHERE { ?x "p" ?o . }`,     // literal predicate
		`SELECT ?x WHERE { ?x foo:bar ?o . }`, // unknown prefix
		`SELECT ?x WHERE { ?x ?p ?o . } extra`,
		`SELECT ?x WHERE { ?x <unclosed ?o . }`,
	} {
		if _, err := ParseSelect(bad); err == nil {
			t.Errorf("ParseSelect(%q) accepted", bad)
		}
	}
}

func TestParseAndExecuteEndToEnd(t *testing.T) {
	st, dict := fixture(t)
	q, err := ParseSelect(`
		SELECT ?name WHERE {
			?p a <http://e/Product> .
			?p <http://e/madeBy> ?m .
			?m rdfs:label ?name .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Execute(t.Context(), st, dict, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["name"].Value != "ACME Corp" {
		t.Fatalf("got %v", got)
	}
}

func TestPatternStringRendering(t *testing.T) {
	p := Pattern{V("x"), T(rdf.NewIRI(rdf.IRIType)), T(rdf.NewLiteral("v"))}
	s := p.String()
	if !strings.Contains(s, "?x") || !strings.Contains(s, `"v"`) || !strings.HasSuffix(s, ".") {
		t.Fatalf("Pattern.String = %q", s)
	}
	if len(p.Vars()) != 1 {
		t.Fatalf("Vars = %v", p.Vars())
	}
}

func TestQueryVarsOrder(t *testing.T) {
	q := Query{Patterns: []Pattern{
		{V("b"), V("a"), V("b")},
		{V("c"), T(rdf.NewIRI("http://e/p")), V("a")},
	}}
	vars := q.Vars()
	want := []string{"b", "a", "c"}
	if len(vars) != 3 {
		t.Fatalf("Vars = %v", vars)
	}
	for i := range want {
		if vars[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vars, want)
		}
	}
}
