//go:build !lockdebug

package dispatch

import "sync"

// assertLocked is the held-mutex assert of lockdebug_on.go; without the
// lockdebug tag it is empty and inlines away.
func assertLocked(*sync.Mutex) {}
