//go:build lockdebug

package dispatch

import "sync"

// assertLocked panics if mu is unlocked. It guards the state a shard mutex
// owns without the type system knowing: the engine and its candidate index
// mutate in place. TryLock only proves someone holds mu, not this goroutine;
// a failed TryLock adds no happens-before edge, so -race still reports an
// access whose own lock was forgotten.
func assertLocked(mu *sync.Mutex) {
	if mu.TryLock() {
		mu.Unlock()
		panic("lockdebug: shard mutex must be held here")
	}
}
