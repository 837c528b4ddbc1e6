package mp

import (
	"math/bits"
	"sync"
)

// Message buffers. Every payload Recv returns — and the root's own slot
// in Gather — is a private copy the receiver owns outright. Those copies
// come from a size-classed free list, and a receiver that has fully
// consumed a payload may hand it back with Recycle, so the next message
// of a similar size reuses its storage instead of allocating (and
// zeroing) a fresh one. Recycling is optional: a payload that is never
// recycled is simply garbage collected.
//
// Classes step by a quarter of a power of two, so a buffer of a
// payload's own class wastes at most 25 % of its capacity; payloads of
// poolMinBytes or less are plain allocations. The free lists together hold at most
// poolMaxBytes, so the pool can never pin more memory than that.
const (
	poolMinBytes  = 64
	poolMaxBytes  = 64 << 20
	poolFirstBits = 7  // bits.Len(n-1) for the smallest pooled size n = poolMinBytes+1
	poolLastBits  = 28 // largest pooled capacity: 1<<28, the mpnet frame limit
	poolSteps     = 4  // classes per power of two
)

type bufPool struct {
	mu     sync.Mutex
	free   [(poolLastBits - poolFirstBits + 1) * poolSteps][][]byte
	pooled int // bytes held across all free lists
}

var msgPool bufPool

// poolClass maps a size to its class index and capacity; ok is false
// for sizes the pool does not serve.
func poolClass(n int) (idx, capacity int, ok bool) {
	if n <= poolMinBytes || n > 1<<poolLastBits {
		return 0, 0, false
	}
	b := bits.Len(uint(n - 1)) // 2^(b-1) < n <= 2^b
	sh := b - 3                // class step: an eighth of 2^b
	q := (n + 1<<sh - 1) >> sh // in 5..8
	return (b-poolFirstBits)*poolSteps + q - 5, q << sh, true
}

// getBuf returns a buffer of length n, reusing a recycled one of n's
// class or, failing that, of one of the next classes up (less than
// twice the capacity), so message sizes that drift from frame to frame
// share buffers instead of each pinning their own. Its contents are
// unspecified.
func getBuf(n int) []byte {
	idx, c, ok := poolClass(n)
	if !ok {
		return make([]byte, n)
	}
	p := &msgPool
	p.mu.Lock()
	for i := idx; i < min(idx+poolSteps, len(p.free)); i++ {
		if l := p.free[i]; len(l) > 0 {
			buf := l[len(l)-1]
			l[len(l)-1] = nil
			p.free[i] = l[:len(l)-1]
			p.pooled -= cap(buf)
			p.mu.Unlock()
			return buf[:n]
		}
	}
	p.mu.Unlock()
	return make([]byte, n, c)
}

// Recycle hands a received payload back to the message-buffer pool. Call
// it at most once per payload, and only when nothing — no slice, no
// parsed view such as an rle.Wire — still refers to the payload's bytes:
// the next message of its size class may overwrite them. Buffers the
// pool did not hand out, and any beyond its byte budget, are ignored
// (left to the garbage collector), so recycling is always optional.
func Recycle(buf []byte) {
	idx, c, ok := poolClass(cap(buf))
	if !ok || c != cap(buf) {
		return
	}
	p := &msgPool
	p.mu.Lock()
	if p.pooled+c <= poolMaxBytes {
		p.free[idx] = append(p.free[idx], buf[:0])
		p.pooled += c
	}
	p.mu.Unlock()
}
