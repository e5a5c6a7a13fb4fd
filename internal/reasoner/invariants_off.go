//go:build !slider_invariants

package reasoner

import "time"

// Normal builds carry no lost-wake-up check: strandedCheck is a nil
// channel, which a select never chooses, so a parked waiter holds no
// timer. Build with -tags slider_invariants to turn it on (see
// invariants_on.go and INVARIANTS.md).
func (e *Engine) strandedCheck() <-chan time.Time { return nil }

func (e *Engine) assertNotStranded(woken <-chan struct{}) {}
