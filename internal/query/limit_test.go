package query

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rdf"
	"repro/internal/store"
)

// limitFixture builds a store with n typed subjects for paging tests.
func limitFixture(t *testing.T, n int) (*store.Store, *rdf.Dictionary) {
	t.Helper()
	dict := rdf.NewDictionary()
	st := store.New()
	typeT := rdf.NewIRI(rdf.IRIType)
	for i := 0; i < n; i++ {
		st.Add(dict.EncodeStatement(rdf.NewStatement(
			rdf.NewIRI(fmt.Sprintf("http://e/s%02d", i)), typeT, ex("Thing"))))
	}
	return st, dict
}

func thingQuery() Query {
	return Query{Patterns: []Pattern{{V("x"), T(rdf.NewIRI(rdf.IRIType)), T(ex("Thing"))}}}
}

func TestParseSelectLimitOffset(t *testing.T) {
	cases := []struct {
		src           string
		limit, offset int
		hasLimit      bool
	}{
		{"SELECT ?x WHERE { ?x a <http://e/T> . }", 0, 0, false},
		{"SELECT ?x WHERE { ?x a <http://e/T> . } LIMIT 5", 5, 0, true},
		{"SELECT ?x WHERE { ?x a <http://e/T> . } OFFSET 3", 0, 3, false},
		{"SELECT ?x WHERE { ?x a <http://e/T> . } LIMIT 5 OFFSET 3", 5, 3, true},
		{"SELECT ?x WHERE { ?x a <http://e/T> . } OFFSET 3 LIMIT 5", 5, 3, true},
		{"SELECT ?x WHERE { ?x a <http://e/T> . } limit 0", 0, 0, true},
		{"SELECT ?x WHERE { ?x a <http://e/T> . }\n\tLIMIT 12 # trailing comment", 12, 0, true},
	}
	for _, c := range cases {
		q, err := ParseSelect(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if q.Limit != c.limit || q.HasLimit != c.hasLimit || q.Offset != c.offset {
			t.Fatalf("%q: got limit=%d hasLimit=%v offset=%d, want %d %v %d",
				c.src, q.Limit, q.HasLimit, q.Offset, c.limit, c.hasLimit, c.offset)
		}
	}
}

func TestParseSelectLimitOffsetErrors(t *testing.T) {
	bad := []string{
		"SELECT ?x WHERE { ?x a <http://e/T> . } LIMIT",
		"SELECT ?x WHERE { ?x a <http://e/T> . } LIMIT -1",
		"SELECT ?x WHERE { ?x a <http://e/T> . } LIMIT five",
		"SELECT ?x WHERE { ?x a <http://e/T> . } LIMIT 5 LIMIT 6",
		"SELECT ?x WHERE { ?x a <http://e/T> . } OFFSET 1 OFFSET 2",
		"SELECT ?x WHERE { ?x a <http://e/T> . } LIMIT 99999999999999999999",
		"SELECT ?x WHERE { ?x a <http://e/T> . } LIMIT 5 garbage",
		"SELECT ?x WHERE { ?x a <http://e/T> . } OFFSET 5 trailing",
	}
	for _, src := range bad {
		if _, err := ParseSelect(src); err == nil {
			t.Fatalf("%q: parse succeeded, want error", src)
		}
	}
}

func TestExecuteHonoursLimitOffset(t *testing.T) {
	st, dict := limitFixture(t, 10)
	q := thingQuery()
	q.HasLimit, q.Limit, q.Offset = true, 3, 2
	got, err := Execute(t.Context(), st, dict, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Execute pages the sorted result: s02, s03, s04.
	if len(got) != 3 {
		t.Fatalf("got %d rows, want 3: %v", len(got), got)
	}
	for i, want := range []string{"s02", "s03", "s04"} {
		if !strings.HasSuffix(got[i]["x"].Value, want) {
			t.Fatalf("row %d = %v, want suffix %s", i, got[i]["x"], want)
		}
	}

	// Offset past the end yields nothing; LIMIT 0 yields nothing.
	q.Offset = 50
	if got, _ := Execute(t.Context(), st, dict, q, nil, nil); len(got) != 0 {
		t.Fatalf("offset past end: got %v", got)
	}
	q.Offset, q.Limit = 0, 0
	if got, _ := Execute(t.Context(), st, dict, q, nil, nil); len(got) != 0 {
		t.Fatalf("LIMIT 0: got %v", got)
	}
}

func TestExecuteFuncStreamsAndStopsEarly(t *testing.T) {
	st, dict := limitFixture(t, 100)
	q := thingQuery()
	q.HasLimit, q.Limit, q.Offset = true, 7, 5
	var rows []Binding
	if err := ExecuteFunc(t.Context(), st, dict, q, nil, nil, func(b Binding) bool {
		rows = append(rows, b)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("streamed %d rows, want 7", len(rows))
	}
	seen := map[string]bool{}
	for _, b := range rows {
		if seen[b["x"].Value] {
			t.Fatalf("duplicate row %v", b)
		}
		seen[b["x"].Value] = true
	}

	// emit returning false stops evaluation.
	n := 0
	q = thingQuery()
	if err := ExecuteFunc(t.Context(), st, dict, q, nil, nil, func(Binding) bool {
		n++
		return n < 4
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("emit called %d times after early stop, want 4", n)
	}

	// LIMIT 0 emits nothing but still validates.
	q.HasLimit, q.Limit = true, 0
	called := false
	if err := ExecuteFunc(t.Context(), st, dict, q, nil, nil, func(Binding) bool { called = true; return true }); err != nil || called {
		t.Fatalf("LIMIT 0: err=%v called=%v", err, called)
	}
	if err := ExecuteFunc(t.Context(), st, dict, Query{}, nil, nil, func(Binding) bool { return true }); err == nil {
		t.Fatal("empty BGP accepted")
	}
}

// TestExecuteOverView pins the serving-layer path: the same query over a
// frozen view answers with freeze-time data while the live store moves on.
func TestExecuteOverView(t *testing.T) {
	st, dict := limitFixture(t, 5)
	view := st.Freeze()
	defer view.Release()
	// Mutate after the freeze: two new subjects, one removal.
	typeT := rdf.NewIRI(rdf.IRIType)
	st.Add(dict.EncodeStatement(rdf.NewStatement(rdf.NewIRI("http://e/new1"), typeT, ex("Thing"))))
	st.Add(dict.EncodeStatement(rdf.NewStatement(rdf.NewIRI("http://e/new2"), typeT, ex("Thing"))))
	st.Remove(dict.EncodeStatement(rdf.NewStatement(rdf.NewIRI("http://e/s00"), typeT, ex("Thing"))))

	got, err := Execute(t.Context(), view, dict, thingQuery(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("view query: %d rows, want 5 (frozen): %v", len(got), got)
	}
	for _, b := range got {
		if strings.Contains(b["x"].Value, "new") {
			t.Fatalf("post-freeze subject leaked into view query: %v", b)
		}
	}
	live, err := Execute(t.Context(), st, dict, thingQuery(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 6 {
		t.Fatalf("live query: %d rows, want 6", len(live))
	}
}
