//go:build !slider_invariants

package store

// invariantsEnabled is false in normal builds: every assertion call
// site is guarded by `if invariantsEnabled`, so the compiler deletes
// both the branch and these empty bodies — the hot paths pay nothing.
// Build with -tags slider_invariants to turn the checks on (see
// invariants_on.go and INVARIANTS.md).
const invariantsEnabled = false

func checkRunList(runs []*run, n int, fresh ...*run) {}
func checkRun(r *run)                                {}
