// Package bus is the callee half of the cross-package fixture: Publish takes
// a leaf lock, which package crosspkg learns of only through lockorder's
// facts.
package bus

import "sync"

// Bus stands in for the event bus.
type Bus struct {
	//ltc:lock leaf
	mu sync.Mutex
	n  int
}

// Publish takes the leaf lock.
func (b *Bus) Publish() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

// Relock would be reported if this package were matched itself; loaded as a
// dependency of crosspkg, it is analyzed for its facts alone.
func (b *Bus) Relock() {
	b.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	b.mu.Unlock()
}
