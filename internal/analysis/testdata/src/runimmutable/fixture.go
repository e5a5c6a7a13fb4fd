// Package runimmutable seeds violations for the runimmutable checker's
// golden test: run fields may only be written inside buildRun, and
// partition.runs elements may never be written in place.
package runimmutable

type run struct {
	pairs int
	subs  []int
	objs  []int
}

type partition struct {
	runs []*run
}

// buildRun is the blessed constructor: its writes are fine.
func buildRun(n int) *run {
	r := &run{pairs: n}
	r.subs = append(r.subs, 1)
	r.objs = make([]int, n)
	r.objs[0] = 1
	return r
}

// patch mutates a published run and a run slice: every statement but
// the last is a violation.
func patch(r *run, p *partition) {
	r.subs = nil
	r.objs[0] = 7
	_ = append(r.subs, 9)
	p.runs[0] = r
	p.runs = nil // wholesale replacement is the sanctioned pattern
}

// reader only reads: clean.
func reader(r *run) int {
	return r.pairs + len(r.subs) + r.objs[0]
}

// dir stands for a part a run holds by value, such as one direction of
// its index: its fields are protected like the run's own.
type dir struct {
	keys []int
}

// patchDir mutates parts of published runs: every statement is a
// violation.
func patchDir(d *dir, ds []dir) {
	d.keys[0] = 1
	ds[0].keys = nil
	_ = append(d.keys, 2)
}
