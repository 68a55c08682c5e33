//go:build lockdebug

package dispatch

// Runtime twin of ltclint's lockorder analyzer: under -tags lockdebug every
// dispatch lock site reports acquisitions and releases here, keyed by
// goroutine, and any violation of the documented lock order panics at the
// acquisition site — before the real Lock call, so a deliberate inversion in
// a test panics instead of deadlocking. The static analyzer proves the order
// for the code it can see; this checker catches what only shows up live
// (orders fed by runtime indices, paths through interface calls) and runs
// on every pull request, and under -race in the nightly stress job.
//
// Class levels mirror internal/lint's lockLevels table; ord disambiguates
// same-class instances (the shard index) and must strictly ascend within a
// class, matching the //ltc:ascending contract.

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// lockdebugEnabled reports whether the hooks below are compiled in; they
// allocate (runtime.Stack, the held-set map), so allocation-count tests skip
// under the tag.
const lockdebugEnabled = true

var ldLevels = map[string]int{
	"regMu": 10,
	"shard": 20,
	"async": 30,
	"queue": 50,
	"leaf":  90,
}

type ldEntry struct {
	class string
	level int
	ord   int
}

var (
	ldMu   sync.Mutex
	ldHeld = map[uint64][]ldEntry{}
)

// ldGID extracts the current goroutine's ID from the stack header — slow,
// which is fine: this file only builds under the lockdebug tag.
func ldGID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	// "goroutine 123 [running]:"
	s := buf[len("goroutine "):n]
	var id uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

func ldDescribe(held []ldEntry) string {
	parts := make([]string, len(held))
	for i, h := range held {
		parts[i] = fmt.Sprintf("%s(%d)", h.class, h.ord)
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

func ldLock(class string, ord int) {
	level, ok := ldLevels[class]
	if !ok {
		panic("lockdebug: unknown lock class " + class)
	}
	g := ldGID()
	ldMu.Lock()
	defer ldMu.Unlock()
	held := ldHeld[g]
	if class == "leaf" && len(held) > 0 {
		panic(fmt.Sprintf("lockdebug: leaf lock acquired while holding {%s}; leaf locks require an empty held set", ldDescribe(held)))
	}
	for _, h := range held {
		switch {
		case h.class == class && h.ord == ord:
			panic(fmt.Sprintf("lockdebug: %s(%d) is already held", class, ord))
		case level < h.level:
			panic(fmt.Sprintf("lockdebug: acquiring %s(%d) (level %d) while holding %s(%d) (level %d) violates the lock order",
				class, ord, level, h.class, h.ord, h.level))
		case level == h.level && ord <= h.ord:
			panic(fmt.Sprintf("lockdebug: same-class locks must be acquired in ascending order: %s(%d) after %s(%d)",
				class, ord, h.class, h.ord))
		}
	}
	ldHeld[g] = append(held, ldEntry{class: class, level: level, ord: ord})
}

func ldUnlock(class string, ord int) {
	g := ldGID()
	ldMu.Lock()
	defer ldMu.Unlock()
	held := ldHeld[g]
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].class == class && held[i].ord == ord {
			held = append(held[:i], held[i+1:]...)
			if len(held) == 0 {
				delete(ldHeld, g)
			} else {
				ldHeld[g] = held
			}
			return
		}
	}
	panic(fmt.Sprintf("lockdebug: unlock of %s(%d), which this goroutine does not hold", class, ord))
}

// ldAssertHeld panics unless the calling goroutine holds class(ord). It is
// the exclusivity proof for state a lock owns without the type system
// knowing: a shard's engine and its candidate index mutate in place, so
// every call that mutates them must sit under that shard's mutex.
func ldAssertHeld(class string, ord int) {
	g := ldGID()
	ldMu.Lock()
	defer ldMu.Unlock()
	held := ldHeld[g]
	for _, h := range held {
		if h.class == class && h.ord == ord {
			return
		}
	}
	panic(fmt.Sprintf("lockdebug: %s(%d) must be held here; holding {%s}", class, ord, ldDescribe(held)))
}

func ldAssertNoneHeld(op string) {
	g := ldGID()
	ldMu.Lock()
	defer ldMu.Unlock()
	if held := ldHeld[g]; len(held) > 0 {
		panic(fmt.Sprintf("lockdebug: %s with {%s} held; the bus lock is a leaf — release every dispatch lock before publishing", op, ldDescribe(held)))
	}
}
