// Package crosspkg is the caller half of the cross-package fixture: a shard
// lock held across a call into package bus, whose leaf lock only bus's facts
// reveal. The test matches this package alone, so bus is loaded as a
// dependency.
package crosspkg

import (
	"sync"

	"ltc/internal/lint/testdata/src/crosspkg/bus"
)

type shard struct {
	//ltc:lock shard[i]
	mu sync.Mutex
	b  *bus.Bus
}

func (s *shard) publishUnderLock() {
	s.mu.Lock()
	s.b.Publish() // want "may acquire a leaf lock"
	s.mu.Unlock()
}

func (s *shard) publishAfterUnlock() {
	s.mu.Lock()
	s.mu.Unlock()
	s.b.Publish()
}
