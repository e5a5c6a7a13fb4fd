//go:build !slider_invariants

package store

import "repro/internal/rdf"

// invariantsEnabled is false in normal builds: every assertion call
// site is guarded by `if invariantsEnabled`, so the compiler deletes
// both the branch and these empty bodies — the hot paths pay nothing.
// Build with -tags slider_invariants to turn the checks on (see
// invariants_on.go and INVARIANTS.md).
const invariantsEnabled = false

func (p *partition) assertAccounting()              {}
func (p *partition) assertOverlayShape(s, o rdf.ID) {}
func (p *partition) assertLive(s, o rdf.ID)         {}
func (p *partition) assertDead(s, o rdf.ID)         {}
func checkRun(r *run)                               {}
