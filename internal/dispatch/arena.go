package dispatch

// grantBlockSize is how many TaskGrants a grantArena allocates per backing
// block. At the typical 1-3 grants per receipt one block serves hundreds of
// check-ins, so the steady-state grant cost is one amortized allocation per
// ~thousand calls instead of one per call.
const grantBlockSize = 1024

// grantArena carves caller-owned TaskGrant slices out of chunked backing
// blocks. Each carve is a full slice expression (len == cap), so a caller
// appending to its receipt's Assignments can never clobber a later carve.
// Blocks are never reused — once a block is fully carved the arena drops its
// reference and allocates a fresh one, so handed-out slices stay valid for
// as long as the caller keeps them and the garbage collector reclaims each
// block when the last receipt referencing it is dropped. Not safe for
// concurrent use: each shard owns one arena, guarded by the shard mutex.
type grantArena struct {
	free []TaskGrant
}

// carve returns a zeroed slice of n grants with cap n.
func (a *grantArena) carve(n int) []TaskGrant {
	if n > len(a.free) {
		size := grantBlockSize
		if n > size {
			size = n
		}
		a.free = make([]TaskGrant, size)
	}
	out := a.free[:n:n]
	a.free = a.free[n:]
	return out
}
