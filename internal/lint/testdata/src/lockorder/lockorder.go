// Package fixture exercises the lockorder analyzer: the dispatch layer's
// lock classes in miniature — a registry RWMutex above indexed shard
// mutexes above a leaf event-bus mutex.
package fixture

import "sync"

type bus struct {
	//ltc:lock leaf
	mu sync.Mutex
}

func (b *bus) publish() {
	b.mu.Lock()
	b.mu.Unlock()
}

type shard struct {
	//ltc:lock shard[i]
	mu      sync.Mutex
	routed  int
	pending []int
}

type disp struct {
	//ltc:lock regMu
	regMu  sync.RWMutex
	shards []*shard
	b      *bus
}

// good takes the locks in declared order and publishes with none held.
func (d *disp) good(i int) {
	d.regMu.Lock()
	s := d.shards[i]
	s.mu.Lock()
	s.routed++
	s.mu.Unlock()
	d.regMu.Unlock()
	d.b.publish()
}

// deferredUnlock holds regMu via defer across a correctly nested shard lock.
func (d *disp) deferredUnlock(i int) {
	d.regMu.RLock()
	defer d.regMu.RUnlock()
	s := d.shards[i]
	s.mu.Lock()
	s.routed++
	s.mu.Unlock()
}

// inversion acquires the registry lock under a shard lock — a snapshot
// reader pinning the ID space inside its shard loop instead of around it.
func (d *disp) inversion(i int) {
	s := d.shards[i]
	s.mu.Lock()
	d.regMu.RLock() // want "violates the lock order"
	d.regMu.RUnlock()
	s.mu.Unlock()
}

// leafUnderLock publishes while a shard lock is held — the transitive case:
// publish itself takes the leaf mutex.
func (d *disp) leafUnderLock(i int) {
	s := d.shards[i]
	s.mu.Lock()
	d.b.publish() // want "may acquire a leaf lock"
	s.mu.Unlock()
}

// leafDirect takes the bus mutex directly under a shard lock.
func (d *disp) leafDirect(i int) {
	s := d.shards[i]
	s.mu.Lock()
	d.b.mu.Lock() // want "leaf lock .* acquired while holding"
	d.b.mu.Unlock()
	s.mu.Unlock()
}

// doubleLock re-acquires a lock the function already holds.
func (d *disp) doubleLock(i int) {
	s := d.shards[i]
	s.mu.Lock()
	s.mu.Lock() // want "already held"
	s.mu.Unlock()
	s.mu.Unlock()
}

// pair nests two same-class shard locks without the ascending marker.
func (d *disp) pair(i, j int) {
	a, b := d.shards[i], d.shards[j]
	a.mu.Lock()
	b.mu.Lock() // want "ascending"
	b.mu.Unlock()
	a.mu.Unlock()
}

// pairAscending is the blessed two-shard pattern: the caller sorts the
// indices and marks the second acquisition.
func (d *disp) pairAscending(i, j int) {
	a, b := d.shards[i], d.shards[j]
	if j < i {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock() //ltc:ascending
	b.mu.Unlock()
	a.mu.Unlock()
}

// branches exercises the flow walk: the lock is released on one path and
// held on the other, so the post-if publish is flagged.
func (d *disp) branches(i int, flip bool) {
	s := d.shards[i]
	s.mu.Lock()
	if flip {
		s.mu.Unlock()
		return
	}
	d.b.publish() // want "may acquire a leaf lock"
	s.mu.Unlock()
}

// goroutineStartsClean: a spawned goroutine does not inherit the spawner's
// held set, so publishing from it is fine even mid-critical-section.
func (d *disp) goroutineStartsClean(i int) {
	s := d.shards[i]
	s.mu.Lock()
	go func() {
		d.b.publish()
	}()
	s.mu.Unlock()
}

// each calls f on every shard under that shard's mutex, like the
// dispatcher's eachShard: a literal passed to it runs with a shard lock held.
func (d *disp) each(f func(s *shard)) {
	for _, s := range d.shards {
		s.mu.Lock()
		f(s)
		s.mu.Unlock()
	}
}

// publishInCallback publishes from inside an each callback.
func (d *disp) publishInCallback() {
	d.each(func(s *shard) {
		s.routed++
		d.b.publish() // want "may acquire a leaf lock"
	})
}

// registryInCallback takes the registry inside an each callback.
func (d *disp) registryInCallback() (n int) {
	d.each(func(s *shard) {
		d.regMu.RLock() // want "violates the lock order"
		n += len(s.pending)
		d.regMu.RUnlock()
	})
	return n
}

// readInCallback only reads shard state inside the callback: silent.
func (d *disp) readInCallback() (n int) {
	d.each(func(s *shard) { n += s.routed })
	return n
}

// waived demonstrates a reasoned waiver suppressing the diagnostic.
func (d *disp) waived(i int) {
	s := d.shards[i]
	s.mu.Lock()
	d.b.publish() //ltclint:ignore lockorder fixture demonstrates a reasoned waiver
	s.mu.Unlock()
}

type naked struct {
	mu sync.Mutex // want "no //ltc:lock annotation"
}
