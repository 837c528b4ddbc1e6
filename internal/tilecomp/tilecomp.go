// Package tilecomp is the tile-routed compositing subsystem: compositing
// methods that route encoded image regions directly to static owners in
// one communication round, instead of riding binary-swap's log-P
// lockstep exchange.
//
// Two methods register with the core registry:
//
//   - ds   — sparse direct-send: the final image splits into P horizontal
//     strips, one per rank, and every rank sends each owner the
//     run-length-encoded intersection of its bounding rectangle with that
//     owner's strip. Unlike the unencoded DirectSend baseline in
//     internal/core, only non-blank pixels travel.
//   - dfb  — Distributed-FrameBuffer-style tile routing (Usher et al.):
//     the image decomposes into fixed square tiles with a deterministic
//     round-robin owner assignment, each rank batches the non-empty
//     encoded tiles bound for each owner into one message, and owners
//     composite contributions in depth order.
//
// Both methods need only per-rank geometry (partition.Layout) — never
// stage pairing — so they run natively at any rank count: image
// decomposition is decoupled from the rank topology. Correctness rests
// on one argument: each rank's subimage is composited into its owner's
// accumulation in the layout's global front-to-back depth order. The
// per-rank boxes form a BSP of the volume, so the global order is a
// valid per-pixel order for every pixel, and sends are buffered
// (mp.Comm.Send never blocks), so the route fan-out completes before any
// rank starts the merge — no cyclic waits at any P.
//
// On the same subimages both methods produce bit-identical images to the
// sequential depth-order reference, because skipping a blank pixel is
// exact under the over operator.
package tilecomp

import (
	"encoding/binary"
	"fmt"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/rle"
)

// Message tags, distinct from core's binary-swap tags (1..5) sharing the
// same communicator.
const (
	tagDS  = 11
	tagDFB = 12
)

// DefaultTile is the dfb tile edge when DFB.Tile is unset: big enough
// that per-tile framing stays small against pixel payloads, small enough
// that a compact foreground still spreads across owners.
const DefaultTile = 64

func init() {
	core.Register(core.Spec{
		Name: "ds",
		Make: func() core.Compositor { return DS{} },
		Caps: core.Caps{NativeAnyP: true, ModelBacked: true, WireEncoded: true},
	})
	core.Register(core.Spec{
		Name: "dfb",
		Make: func() core.Compositor { return DFB{} },
		Caps: core.Caps{NativeAnyP: true, ModelBacked: true, WireEncoded: true},
	})
}

// StripRect returns strip r of p over the full frame — the ds ownership
// map. Strips are horizontal bands of near-equal height; with p > height
// the trailing strips are empty, which is valid (their owners receive
// nothing and own nothing).
func StripRect(full frame.Rect, r, p int) frame.Rect {
	h := full.Dy()
	return frame.Rect{
		X0: full.X0, Y0: full.Y0 + r*h/p,
		X1: full.X1, Y1: full.Y0 + (r+1)*h/p,
	}.Canon()
}

// resolveLayout picks the rank geometry for a composite call: the
// explicitly configured layout when set (the harness passes a fold plan
// at non-power-of-two P), else the decomposition argument every
// Compositor receives.
func resolveLayout(lay partition.Layout, dec *partition.Decomposition, c mp.Comm) (partition.Layout, error) {
	if lay == nil {
		if dec == nil {
			return nil, fmt.Errorf("tilecomp: no layout and no decomposition")
		}
		lay = dec
	}
	if c.Size() != lay.Size() {
		return nil, fmt.Errorf("tilecomp: world has %d ranks but layout expects %d",
			c.Size(), lay.Size())
	}
	if c.Rank() < 0 || c.Rank() >= lay.Size() {
		return nil, fmt.Errorf("tilecomp: rank %d out of range", c.Rank())
	}
	return lay, nil
}

// parseRegion validates and parses one rect-framed RLE payload body.
func parseRegion(r frame.Rect, body []byte) (rle.Wire, []byte, error) {
	e, rest, err := rle.ParseWire(body)
	if err != nil {
		return rle.Wire{}, nil, err
	}
	if e.Total() != r.Area() {
		return rle.Wire{}, nil, fmt.Errorf("encoding covers %d pixels, rect %v has %d",
			e.Total(), r, r.Area())
	}
	return e, rest, nil
}

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("truncated u32")
	}
	return binary.LittleEndian.Uint32(buf), buf[4:], nil
}
