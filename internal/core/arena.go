package core

import (
	"sync"

	"sortlast/internal/frame"
	"sortlast/internal/rle"
)

// arena bundles the per-rank scratch a compositor reuses across stages:
// a wire-buffer codec, a reusable background/foreground encoding with
// its SeqEncoder and Builder front ends, and a value-run slice. Stage
// exchange regions shrink monotonically, so the storage sized by stage 1
// serves every later stage without reallocating. mp.Comm.Send copies a
// payload into a buffer the receiver owns (and may mp.Recycle once it
// has consumed it), so handing the same arena buffer to consecutive
// sends is safe; arena storage itself never goes to mp.Recycle. Each
// Composite call checks an arena out of a shared pool for its
// exclusive use — concurrent ranks never share scratch, and successive
// composites over a standing communicator reuse warm buffers instead of
// allocating fresh ones per frame.
type arena struct {
	codec frame.Codec
	enc   rle.Encoding
	b     rle.Builder
	runs  []rle.Run
	// iv double-buffers interval scratch for the load-balanced methods:
	// each stage splits the previous stage's kept set, which aliases one
	// of these slices, so the split alternates between the two pairs —
	// stage k writes pair (k%2)*2 while reading from the other pair.
	iv [4][]Interval
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena  { return arenaPool.Get().(*arena) }
func putArena(a *arena) { arenaPool.Put(a) }

// rect starts a payload with an 8-byte rectangle header in codec
// scratch, reserving room for extra more bytes of appended body.
func (a *arena) rect(r frame.Rect, extra int) []byte {
	payload := a.codec.Grab(frame.RectBytes + extra)[:frame.RectBytes]
	frame.PutRect(payload, r)
	return payload
}

// Scratch hands the pooled arena to compositing subsystems outside this
// package (internal/tilecomp), so their per-frame encode/send loops
// reuse the same warm codec buffers and encodings the binary-swap
// family does. Check one out per Composite call and Release it when the
// call returns; a Scratch is for one goroutine's exclusive use.
type Scratch struct{ a *arena }

// GetScratch checks an arena out of the shared pool.
func GetScratch() Scratch { return Scratch{a: getArena()} }

// Release returns the arena to the pool.
func (s Scratch) Release() { putArena(s.a) }

// Grab returns an n-capacity wire buffer from the codec's storage.
func (s Scratch) Grab(n int) []byte { return s.a.codec.Grab(n) }

// Retain gives a sent payload's storage back to the codec for reuse
// (mp.Comm.Send copies, so the buffer is free as soon as Send returns).
// It is for outgoing payloads only; received ones go to mp.Recycle.
func (s Scratch) Retain(buf []byte) { s.a.codec.Retain(buf) }

// Rect starts a payload with an 8-byte rectangle header, reserving room
// for extra more bytes of appended body.
func (s Scratch) Rect(r frame.Rect, extra int) []byte { return s.a.rect(r, extra) }

// Enc returns the reusable run-length encoding.
func (s Scratch) Enc() *rle.Encoding { return &s.a.enc }
