// Package rdf stands in for the dictionary's two lock classes. The
// golden test loads it under the import path the default lock table
// names, so it checks DefaultCheckers' ranks: a stripe lock before
// seqMu.
package rdf

import "sync"

type dictStripe struct {
	mu sync.RWMutex
}

type Dictionary struct {
	stripes [2]dictStripe
	seqMu   sync.RWMutex
}

// encode follows the documented order.
func (d *Dictionary) encode() {
	s := &d.stripes[0]
	s.mu.Lock()
	defer s.mu.Unlock()
	d.seqMu.Lock()
	d.seqMu.Unlock()
}

// bad takes a stripe lock while holding seqMu.
func (d *Dictionary) bad() {
	d.seqMu.RLock()
	defer d.seqMu.RUnlock()
	d.stripes[1].mu.RLock()
	d.stripes[1].mu.RUnlock()
}
