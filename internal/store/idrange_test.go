package store

import (
	"slices"
	"testing"

	"repro/internal/rdf"
)

// outOfRange holds IDs without a packed form: sequence number 2^30+5
// packs onto the stored key of sequence number 5, and kind bits 11 are
// no term kind.
var outOfRange = []rdf.ID{rdf.ID(1<<30 + 5), rdf.ID(1<<62 | 1<<30 + 7), rdf.ID(3<<62 | 5)}

// TestAddRefusesOutOfRangeID checks that Add and AddBatch panic with
// errIDRange on an ID that no run could hold, before changing anything.
func TestAddRefusesOutOfRangeID(t *testing.T) {
	st := New()
	st.SetAutoCompact(false)
	st.Add(tr(5, 2, 7))
	st.FlushOverlays()
	st.Add(tr(5, 2, 8))
	before, n := st.Stats(), st.Len()
	objs := st.ObjectsAppend(nil, 2, 5)

	mustRefuse := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r != errIDRange {
				t.Fatalf("%s: recovered %v, want errIDRange", name, r)
			}
		}()
		f()
	}
	for _, bad := range outOfRange {
		mustRefuse("Add subject", func() { st.Add(rdf.T(bad, 2, 7)) })
		mustRefuse("Add object", func() { st.Add(rdf.T(5, 2, bad)) })
		mustRefuse("Add new predicate", func() { st.Add(rdf.T(bad, 3, 7)) })
		mustRefuse("AddBatch", func() { st.AddBatch([]rdf.Triple{tr(6, 2, 7), tr(6, 4, 7), rdf.T(5, 2, bad)}) })
	}
	if got := st.Stats(); got != before || st.Len() != n {
		t.Fatalf("refused inserts changed the store: %+v (len %d), was %+v (len %d)", got, st.Len(), before, n)
	}
	if got := st.ObjectsAppend(nil, 2, 5); !slices.Equal(got, objs) {
		t.Fatalf("refused inserts changed the partition: objects %v, was %v", got, objs)
	}
	if preds := st.Predicates(); !slices.Equal(preds, []rdf.ID{2}) {
		t.Fatalf("refused inserts registered predicates: %v", preds)
	}
}

// TestProbesTreatOutOfRangeIDsAsAbsent probes a store whose pairs sit
// in the overlay and in runs with IDs whose packing collides with
// stored keys: every probe answers absent, live and through a view.
func TestProbesTreatOutOfRangeIDsAsAbsent(t *testing.T) {
	st := New()
	st.SetAutoCompact(false)
	for o := uint64(5); o < 10; o++ {
		st.Add(tr(5, 2, o))
		st.Add(tr(1<<62|7, 2, o))
	}
	st.FlushOverlays()
	st.Add(tr(5, 2, 11))
	v := st.Freeze()
	defer v.Release()
	st.Remove(tr(5, 2, 6)) // a tombstone, so the view compensates
	type prober interface {
		Contains(rdf.Triple) bool
		ObjectsAppend(dst []rdf.ID, p, s rdf.ID) []rdf.ID
		SubjectsAppend(dst []rdf.ID, p, o rdf.ID) []rdf.ID
	}
	for name, src := range map[string]prober{"store": st, "view": v} {
		for _, bad := range outOfRange {
			if src.Contains(rdf.T(bad, 2, 7)) || src.Contains(rdf.T(5, 2, bad)) || src.Contains(rdf.T(bad, 2, bad)) {
				t.Fatalf("%s: Contains reports a pair with %#x", name, bad)
			}
			if got := src.ObjectsAppend(nil, 2, bad); len(got) != 0 {
				t.Fatalf("%s: ObjectsAppend(%#x) = %v", name, bad, got)
			}
			if got := src.SubjectsAppend(nil, 2, bad); len(got) != 0 {
				t.Fatalf("%s: SubjectsAppend(%#x) = %v", name, bad, got)
			}
		}
	}
}
