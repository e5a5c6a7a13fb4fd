package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/bsbm"
	"repro/internal/ntriples"
	"repro/internal/ontogen"
	"repro/internal/rdf"
)

// loadBatch is how many triples one load-phase insert carries.
const loadBatch = 4096

// trickleBatch is how many fresh instance triples one trickle or churn
// insert carries.
const trickleBatch = 64

// queryLimit caps every benchmark query, so a hub entity cannot turn one
// sample into a scan.
const queryLimit = 100

// freshBase offsets the identifiers of instances minted after the load, so
// they never collide with a generated one.
const freshBase = 100_000_000

// dataset is one workload's generated input plus everything derived from
// it that later phases need once the statements themselves are dropped.
type dataset struct {
	family string
	stmts  []rdf.Statement
	// bodies is stmts serialised as N-Triples, one document per load
	// batch; sha is the SHA-256 over all of them in order.
	bodies [][]byte
	sha    string
	// entities counts the generated instances per kind ("Product",
	// "article", …); queries draw their bound subjects from it.
	entities map[string]int
	// classes are classes with at least one explicit superclass, in
	// input order; parent maps such a class to its first one.
	classes []rdf.Term
	parent  map[rdf.Term]rdf.Term
	supers  map[rdf.Term][]rdf.Term // every explicit superclass
	above   map[rdf.Term]int        // see ancestors
	edges   []rdf.Term              // see schemaEdge
}

var (
	typeIRI  = rdf.NewIRI(rdf.IRIType)
	scIRI    = rdf.NewIRI(rdf.IRISubClassOf)
	labelIRI = rdf.NewIRI(rdf.IRILabel)
)

// generate builds the family's dataset of about n triples from seed.
func generate(family string, n int, seed int64) []rdf.Statement {
	if family == "wikipedia" {
		return ontogen.Wikipedia(ontogen.Config{Triples: n, Seed: seed})
	}
	return bsbm.Generate(bsbm.Config{Triples: n, Seed: seed})
}

func newDataset(family string, n int, seed int64) (*dataset, error) {
	d := &dataset{
		family:   family,
		stmts:    generate(family, n, seed),
		entities: map[string]int{},
		parent:   map[rdf.Term]rdf.Term{},
		supers:   map[rdf.Term][]rdf.Term{},
		above:    map[rdf.Term]int{},
	}
	h := sha256.New()
	for i := 0; i < len(d.stmts); i += loadBatch {
		body, err := serialise(d.stmts[i:min(i+loadBatch, len(d.stmts))])
		if err != nil {
			return nil, err
		}
		h.Write(body)
		d.bodies = append(d.bodies, body)
	}
	d.sha = hex.EncodeToString(h.Sum(nil))
	for _, st := range d.stmts {
		switch st.P {
		case scIRI:
			d.supers[st.S] = append(d.supers[st.S], st.O)
			if _, ok := d.parent[st.S]; !ok {
				d.parent[st.S] = st.O
				d.classes = append(d.classes, st.S)
			}
		case typeIRI:
			// ".../instances/Product/17" and ".../article/17" both
			// count under the path element before the number.
			if i := strings.LastIndexByte(st.S.Value, '/'); i > 0 {
				if j := strings.LastIndexByte(st.S.Value[:i], '/'); j >= 0 {
					d.entities[st.S.Value[j+1:i]]++
				}
			}
		}
	}
	if len(d.classes) == 0 {
		return nil, fmt.Errorf("dataset %s: no subClassOf edge to trickle under", family)
	}
	return d, nil
}

func serialise(sts []rdf.Statement) ([]byte, error) {
	var buf bytes.Buffer
	if err := ntriples.WriteAll(&buf, sts); err != nil {
		return nil, fmt.Errorf("serialise: %w", err)
	}
	return buf.Bytes(), nil
}

// root follows first-parent links from c to a class without one.
func (d *dataset) root(c rdf.Term) rdf.Term {
	for {
		p, ok := d.parent[c]
		if !ok {
			return c
		}
		c = p
	}
}

// ancestors counts the distinct proper ancestors of a class over every
// explicit subClassOf edge: how many inherited types one instance of it
// gains.
func (d *dataset) ancestors(c rdf.Term) int {
	if n, ok := d.above[c]; ok {
		return n
	}
	seen := map[rdf.Term]bool{}
	var walk func(rdf.Term)
	walk = func(x rdf.Term) {
		for _, p := range d.supers[x] {
			if !seen[p] {
				seen[p] = true
				walk(p)
			}
		}
	}
	walk(c)
	d.above[c] = len(seen)
	return len(seen)
}

// release drops the bulky inputs once the load phase has consumed them,
// so heap_bytes_per_triple measures the reasoner and not the generator.
func (d *dataset) release() {
	d.stmts, d.bodies = nil, nil
}

// batch is one trickle/churn insert: 64 triples about fresh instances, the
// inferred triple whose appearance in a view proves the batch was reasoned
// over, and (for the HTTP workload) the N-Triples body.
type batch struct {
	sts      []rdf.Statement
	sentinel rdf.Statement
	body     []byte
	// inherited is how many types the batch's one class-typed instance
	// inherits. Batches differ in nothing else that inference sees, so
	// reasoning over one grows Len() by a constant plus this.
	inherited int
}

func bsbmTerm(kind string, i int) rdf.Term {
	return rdf.NewIRI(bsbm.InstanceNS + kind + "/" + strconv.Itoa(i))
}

func bsbmVocab(name string) rdf.Term { return rdf.NewIRI(bsbm.VocabNS + name) }

func wikiTerm(kind string, i int) rdf.Term {
	return rdf.NewIRI(ontogen.WikipediaNS + kind + "/" + strconv.Itoa(i))
}

// fresh returns the n-th post-load batch: 63 triples about new instances
// shaped like the generator's, plus one that types the last instance with a
// class deep in the hierarchy, so cax-sco must walk it to the root — the
// sentinel is that instance's type at the root. Only one instance a batch
// is typed this way: the root's extent then grows by one per batch, not by
// all of them, and a retraction's cost does not come to depend on whether
// that extent happens to sit in the overlay or in a sorted run (with every
// instance typed, bulk-rhodf's median retraction flipped between 1.7 and
// 3.4 ms from run to run).
func (d *dataset) fresh(n int, withBody bool) (batch, error) {
	rng := rand.New(rand.NewSource(int64(n)*7919 + 17))
	var b batch
	var last rdf.Term
	for len(b.sts) < trickleBatch-1 {
		id := freshBase + n*trickleBatch + len(b.sts)
		if d.family == "wikipedia" {
			last = wikiTerm("article", id)
			b.sts = append(b.sts,
				rdf.NewStatement(last, typeIRI, rdf.NewIRI(ontogen.WikipediaNS+"Article")),
				rdf.NewStatement(last, rdf.NewIRI(ontogen.TermsNS+"subject"), d.classes[rng.Intn(len(d.classes))]),
				rdf.NewStatement(last, labelIRI, rdf.NewLangLiteral("Article "+strconv.Itoa(id), "en")))
			continue
		}
		last = bsbmTerm("Product", id)
		b.sts = append(b.sts,
			rdf.NewStatement(last, typeIRI, bsbmVocab("Product")),
			rdf.NewStatement(last, labelIRI, rdf.NewLiteral("Product "+strconv.Itoa(id))),
			rdf.NewStatement(last, bsbmVocab("productType"), d.classes[rng.Intn(len(d.classes))]),
			rdf.NewStatement(last, bsbmVocab("producer"), bsbmTerm("Producer", rng.Intn(d.entities["Producer"]))),
			rdf.NewStatement(last, bsbmVocab("productPropertyNumeric1"),
				rdf.NewTypedLiteral(strconv.Itoa(rng.Intn(2000)), rdf.IRIXSDInteger)),
			rdf.NewStatement(last, bsbmVocab("productPropertyNumeric2"),
				rdf.NewTypedLiteral(strconv.Itoa(rng.Intn(2000)), rdf.IRIXSDInteger)),
			rdf.NewStatement(last, bsbmVocab("productPropertyTextual1"),
				rdf.NewLiteral("description of product "+strconv.Itoa(id))))
	}
	class := d.classes[rng.Intn(len(d.classes))]
	b.sts = append(b.sts, rdf.NewStatement(last, typeIRI, class))
	b.sentinel = rdf.NewStatement(last, typeIRI, d.root(class))
	b.inherited = d.ancestors(class)
	if withBody {
		body, err := serialise(b.sts)
		if err != nil {
			return batch{}, err
		}
		b.body = body
	}
	return b, nil
}

// schemaEdge returns the n-th explicit subClassOf edge the churn phase of
// retract-churn removes and re-asserts: one out of a class two levels
// below a root (a 64th of BSBM's type tree), so that subtree's inherited
// memberships become suspects. An edge into a root itself costs 0.7 s a
// pass on the 1.5M dataset, more than the phase can spend.
func (d *dataset) schemaEdge(n int) rdf.Statement {
	if d.edges == nil {
		for _, c := range d.classes {
			if up, ok := d.parent[d.parent[c]]; ok && d.root(up) == up {
				d.edges = append(d.edges, c)
			}
		}
	}
	c := d.edges[n%len(d.edges)]
	return rdf.NewStatement(c, scIRI, d.parent[c])
}

// queryClass is one of the two classes the query phase reports apart.
type queryClass int

const (
	pointQuery queryClass = iota
	joinQuery
)

// template is one query shape; %s is the bound entity, drawn from kind.
// Subject-driven templates appear twice in a class's rotation for every
// appearance of an object-bound one (objectBound), which over a frozen view
// walks a whole partition: at a ninth of the joins it stays clear of both
// the median and the 95th percentile's rank.
type template struct {
	class       queryClass
	kind        string
	text        string
	objectBound bool
}

func (d *dataset) templates() []template {
	if d.family == "wikipedia" {
		const a, c = "article", "category"
		sub := "<" + ontogen.TermsNS + "subject>"
		return []template{
			{pointQuery, a, `SELECT ?c WHERE { %s ` + sub + ` ?c . }`, false},
			{pointQuery, a, `SELECT ?t WHERE { %s a ?t . }`, false},
			{pointQuery, c, `SELECT ?sup WHERE { %s rdfs:subClassOf ?sup . }`, false},
			{pointQuery, a, `SELECT ?l ?c WHERE { %s rdfs:label ?l . %[1]s ` + sub + ` ?c . }`, false},
			{joinQuery, a, `SELECT ?c ?sup ?k WHERE { %s ` + sub + ` ?c . ?c rdfs:subClassOf ?sup . ?sup a ?k . }`, false},
			{joinQuery, a, `SELECT ?c ?l ?t WHERE { %s ` + sub + ` ?c . %[1]s rdfs:label ?l . %[1]s a ?t . }`, false},
			{joinQuery, a, `SELECT ?p ?g ?k WHERE { %s ` + sub + ` ?c . ?c rdfs:subClassOf ?p . ?p rdfs:subClassOf ?g . ?g a ?k . }`, false},
			{joinQuery, c, `SELECT ?p ?g ?k WHERE { %s rdfs:subClassOf ?p . ?p rdfs:subClassOf ?g . ?g a ?k . }`, false},
		}
	}
	v := func(name string) string { return "<" + bsbm.VocabNS + name + ">" }
	return []template{
		{pointQuery, "Product", `SELECT ?l WHERE { %s rdfs:label ?l . }`, false},
		{pointQuery, "Product", `SELECT ?t ?pr WHERE { %s ` + v("productType") + ` ?t . %[1]s ` + v("producer") + ` ?pr . }`, false},
		{pointQuery, "Offer", `SELECT ?c WHERE { %s a ?c . }`, false},
		{pointQuery, "Offer", `SELECT ?prod ?price WHERE { %s ` + v("product") + ` ?prod . %[1]s ` + v("price") + ` ?price . }`, false},
		{joinQuery, "Offer", `SELECT ?p ?pr ?c WHERE { %s ` + v("product") + ` ?p . ?p ` + v("producer") + ` ?pr . ?pr ` + v("country") + ` ?c . }`, false},
		{joinQuery, "Review", `SELECT ?p ?l ?t WHERE { %s ` + v("reviewFor") + ` ?p . ?p ` + v("producer") + ` ?pr . ?pr rdfs:label ?l . ?p ` + v("productType") + ` ?t . }`, false},
		{joinQuery, "Product", `SELECT ?t ?sup ?k WHERE { %s ` + v("productType") + ` ?t . ?t rdfs:subClassOf ?sup . ?sup a ?k . }`, false},
		// spatialRelation is only ever inferred (country ⊑ locatedIn ⊑ it).
		{joinQuery, "Offer", `SELECT ?v ?c ?l WHERE { %s ` + v("vendor") + ` ?v . ?v ` + v("spatialRelation") + ` ?c . ?v rdfs:label ?l . }`, false},
		// The one object-bound step: over a frozen view it walks the
		// whole product partition's subject list.
		{joinQuery, "Product", `SELECT ?o ?v ?pr WHERE { ?o ` + v("product") + ` %s . ?o ` + v("vendor") + ` ?v . ?o ` + v("price") + ` ?pr . }`, true},
	}
}

// instantiate binds a template to the i-th entity of its kind.
func (d *dataset) instantiate(t template, i int) string {
	var e rdf.Term
	if d.family == "wikipedia" {
		e = wikiTerm(t.kind, i)
	} else {
		e = bsbmTerm(t.kind, i)
	}
	return fmt.Sprintf(t.text, "<"+e.Value+">") + " LIMIT " + strconv.Itoa(queryLimit)
}

// queryMix is the seeded, fixed sequence of queries one run issues:
// nPoint point queries and nJoin join queries, shuffled together so neither
// class runs on a quieter machine than the other.
type queryMix []mixEntry

type mixEntry struct {
	class queryClass
	text  string
}

func (d *dataset) mix(seed int64, nPoint, nJoin int) queryMix {
	rng := rand.New(rand.NewSource(seed ^ 0x51d3))
	var byClass [2][]template
	for _, t := range d.templates() {
		byClass[t.class] = append(byClass[t.class], t)
		if !t.objectBound {
			byClass[t.class] = append(byClass[t.class], t)
		}
	}
	mix := make(queryMix, 0, nPoint+nJoin)
	for class, n := range [2]int{nPoint, nJoin} {
		for i := 0; i < n; i++ {
			t := byClass[class][i%len(byClass[class])]
			mix = append(mix, mixEntry{queryClass(class), d.instantiate(t, rng.Intn(d.entities[t.kind]))})
		}
	}
	rng.Shuffle(len(mix), func(i, j int) { mix[i], mix[j] = mix[j], mix[i] })
	return mix
}
