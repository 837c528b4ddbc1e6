package tilecomp

import (
	"encoding/binary"
	"fmt"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// DFB is Distributed-FrameBuffer-style tile-routed reduction: the image
// decomposes into fixed square tiles owned round-robin by tile index
// (partition.Tiling), each rank clips its bounding rectangle against
// every tile, encodes the tiles that actually carry foreground, and
// batches all tiles bound for one owner into a single message. Owners
// composite contributions in the layout's depth order and the final
// gather reassembles the frame from each owner's tile set.
//
// Exactly P-1 messages leave every rank (an owner with no content still
// gets an empty batch), so receives are deterministic without barriers.
// Tile ownership depends only on the tile grid and P — not on the volume
// decomposition — so any rank count works and sparse frames ship only
// the tiles they touch.
type DFB struct {
	// Lay fixes the rank geometry when the world is not described by the
	// decomposition passed to Composite (the non-power-of-two case);
	// nil uses that decomposition.
	Lay partition.Layout
	// Tile is the tile edge in pixels; 0 means DefaultTile.
	Tile int
}

// Name implements core.Compositor.
func (DFB) Name() string { return "DFB" }

// Layout returns the configured geometry (nil when the decomposition
// argument is used).
func (d DFB) Layout() partition.Layout { return d.Lay }

// Batch entry layout: u32 tile index, rect header, RLE pack. A batch is
// a u32 entry count followed by that many entries.
const entryHeaderBytes = 4 + frame.RectBytes

// Composite implements core.Compositor.
func (d DFB) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*core.Result, error) {
	lay, err := resolveLayout(d.Lay, dec, c)
	if err != nil {
		return nil, err
	}
	p, me := c.Size(), c.Rank()
	tile := d.Tile
	if tile <= 0 {
		tile = DefaultTile
	}
	full := img.Full()
	til, err := partition.NewTiling(full, tile, p)
	if err != nil {
		return nil, fmt.Errorf("dfb: %w", err)
	}
	st := &stats.Rank{RankID: me, Method: "DFB"}
	var timer stats.Timer
	tr := c.Tracer()
	sc := core.GetScratch()
	defer sc.Release()
	// Stage 1 carries the route round (encode + sends), stage 2 the merge
	// pass (receives + composites), mirroring the two cost terms of
	// costmodel.TileRoutedCost so report.MeasuredVsModeled gets a real
	// per-stage breakdown instead of one degenerate stage.
	route, merge := st.StageAt(1), st.StageAt(2)

	c.SetStage(trace.StageRoute)
	bm := tr.Begin()
	timer.Start()
	localBR, scanned := img.BoundingRect(full)
	timer.Stop()
	tr.End(bm, trace.SpanBound, "")
	st.BoundScan = scanned

	// Route: for each owner, encode the tiles of theirs my bounding
	// rectangle touches and batch them into one message. Tiles whose
	// clipped region holds no foreground are scanned but not shipped.
	em := tr.Begin()
	for dst := 0; dst < p; dst++ {
		if dst == me {
			continue
		}
		timer.Start()
		payload := sc.Grab(4)[:4]
		count := 0
		for _, t := range til.OwnedBy(dst) {
			sr := til.Rect(t).Intersect(localBR)
			if sr.Empty() {
				continue
			}
			rle.EncodeRect(img, sr, sc.Enc())
			route.Encoded += sr.Area()
			if len(sc.Enc().NonBlank) == 0 {
				continue
			}
			payload = appendU32(payload, uint32(t))
			var rb [frame.RectBytes]byte
			frame.PutRect(rb[:], sr)
			payload = append(payload, rb[:]...)
			payload = sc.Enc().Pack(payload)
			route.Codes += len(sc.Enc().Codes)
			route.SentPixels += len(sc.Enc().NonBlank)
			count++
		}
		binary.LittleEndian.PutUint32(payload[:4], uint32(count))
		if count == 0 {
			route.SendRectEmpty = true
		}
		timer.Stop()
		if err := c.Send(dst, tagDFB, payload); err != nil {
			return nil, fmt.Errorf("dfb: send to %d: %w", dst, err)
		}
		sc.Retain(payload)
		route.MsgsSent++
		route.BytesSent += len(payload)
	}
	tr.End(em, trace.SpanEncode, trace.StageRoute)
	// Umbrella span (Name == Stage), the per-stage measured total the
	// reports sum — the binary-swap family's stageK spans' counterpart.
	tr.End(em, trace.StageRoute, trace.StageRoute)

	// Merge: composite contributions to my tiles front-to-back. Walking
	// the global depth order and putting each source's tiles behind the
	// accumulation is a valid per-pixel order (the rank boxes form a BSP
	// of the volume), the same argument the direct-send merge rests on.
	mine := til.OwnedBy(me)
	out := frame.NewImage(full.Dx(), full.Dy())
	c.SetStage(trace.StageMerge)
	cm := tr.Begin()
	for _, src := range lay.DepthOrder(viewDir) {
		if src == me {
			timer.Start()
			for _, t := range mine {
				if r := til.Rect(t).Intersect(localBR); !r.Empty() {
					merge.Composited += out.CompositeImage(img, r, false)
				}
			}
			timer.Stop()
			continue
		}
		recv, err := c.Recv(src, tagDFB)
		if err != nil {
			return nil, fmt.Errorf("dfb: recv from %d: %w", src, err)
		}
		merge.MsgsRecv++
		merge.BytesRecv += len(recv)
		count, rest, err := readU32(recv)
		if err != nil {
			return nil, fmt.Errorf("dfb: from %d: %w", src, err)
		}
		if count == 0 {
			if len(rest) != 0 {
				return nil, fmt.Errorf("dfb: %d trailing bytes in empty batch from %d",
					len(rest), src)
			}
			merge.RecvRectEmpty = true
			continue
		}
		for i := 0; i < int(count); i++ {
			if len(rest) < entryHeaderBytes {
				return nil, fmt.Errorf("dfb: truncated batch entry %d from %d", i, src)
			}
			t := int(binary.LittleEndian.Uint32(rest))
			r := frame.GetRect(rest[4:])
			rest = rest[entryHeaderBytes:]
			if !til.Valid(t) || til.Owner(t) != me {
				return nil, fmt.Errorf("dfb: tile %d from %d is not mine", t, src)
			}
			if r.Empty() || !til.Rect(t).ContainsRect(r) {
				return nil, fmt.Errorf("dfb: rect %v from %d outside tile %d (%v)",
					r, src, t, til.Rect(t))
			}
			merge.RecvPixels += r.Area()
			e, after, err := parseRegion(r, rest)
			if err != nil {
				return nil, fmt.Errorf("dfb: tile %d from %d: %w", t, src, err)
			}
			rest = after
			timer.Start()
			merge.Composited += e.CompositeInto(out, r, false)
			timer.Stop()
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("dfb: %d trailing bytes from %d", len(rest), src)
		}
		mp.Recycle(recv)
	}
	tr.End(cm, trace.SpanComposite, trace.StageMerge)
	tr.End(cm, trace.StageMerge, trace.StageMerge)
	c.SetStage("")
	st.CompWall = timer.Total()

	rs := make([]frame.Rect, 0, len(mine))
	for _, t := range mine {
		rs = append(rs, til.Rect(t))
	}
	return &core.Result{Image: out, Own: core.RectSetOwn{Rs: rs}, Stats: st}, nil
}
