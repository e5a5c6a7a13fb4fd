package reasoner

import "sync/atomic"

// wake is the engine's quiescence wake-up: a broadcast that any number
// of parked waiters select on beside their context, and that costs the
// raising side one atomic load while nobody is parked.
//
// Protocol. A waiter increments parked, takes the current generation
// with gen, looks at the condition it waits for, and only then parks on
// the channel. A transition that can make such a condition true changes
// the state first and calls raise second. Go's atomics are sequentially
// consistent, so either raise sees parked > 0 and closes the generation
// the waiter holds (or a later one, which means the waiter's was closed
// already), or the waiter's increment came after raise's load and its
// look sees the changed state. Either way no wake-up is lost.
//
// Engine invariant (INVARIANTS.md): every transition that can make a
// waiter's condition true raises the wake-up — the instance that leaves
// the pool idle (finish, also reached when a stopped pool drops a
// delta), a routing pass that buffers triples under an idle pool
// (routed), and Close.
type wake struct {
	parked atomic.Int32
	ch     atomic.Pointer[chan struct{}]
}

func (w *wake) init() {
	ch := make(chan struct{})
	w.ch.Store(&ch)
}

// gen returns the current generation: a channel the next raise closes.
func (w *wake) gen() <-chan struct{} { return *w.ch.Load() }

// raise wakes every parked waiter. Each generation is swapped out by
// exactly one raise, which is the one that closes it.
func (w *wake) raise() {
	if w.parked.Load() == 0 {
		return
	}
	next := make(chan struct{})
	close(*w.ch.Swap(&next))
}
