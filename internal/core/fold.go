package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
)

// Folded lifts a binary-swap-family compositor to arbitrary rank counts,
// implementing the first future-work item of the paper's §5 ("the number
// of processors must be a power of two"). Extra ranks render the high
// half of a once-more-split core subvolume and, in a fold pre-stage, ship
// their whole subimage (bounding rectangle + run-length encoding, the
// BSBRC message format) to their core partner, which pre-composites it.
// The power-of-two core then runs the inner method unchanged; folded
// ranks own nothing and rejoin only for the final gather.
type Folded struct {
	Plan  *partition.FoldPlan
	Inner Compositor
}

// Name implements Compositor.
func (f *Folded) Name() string { return f.Inner.Name() + "+fold" }

// restrictedComm presents the power-of-two core of a larger world to the
// inner compositor. Only point-to-point traffic among core ranks flows
// through it, so overriding Size is sufficient.
type restrictedComm struct {
	mp.Comm
	size int
}

func (r restrictedComm) Size() int { return r.size }

// Composite implements Compositor. The dec argument must be the plan's
// core decomposition (pass Plan.Dec).
func (f *Folded) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if dec != f.Plan.Dec {
		return nil, fmt.Errorf("core: folded compositor needs its plan's decomposition")
	}
	if c.Size() != f.Plan.Size() {
		return nil, fmt.Errorf("core: world has %d ranks, fold plan expects %d",
			c.Size(), f.Plan.Size())
	}
	me := c.Rank()
	c.SetStage("fold")
	full := img.Full()

	if f.Plan.IsExtra(me) {
		st := &stats.Rank{RankID: me, Method: f.Name()}
		var timer stats.Timer
		ar := getArena()
		defer putArena(ar)
		timer.Start()
		br, scanned := img.BoundingRect(full)
		payload := ar.rect(br, 64)
		if !br.Empty() {
			rle.EncodeRect(img, br, &ar.enc)
			payload = ar.enc.Pack(payload)
			st.Fold.Encoded = br.Area()
			st.Fold.Codes = len(ar.enc.Codes)
			st.Fold.SentPixels = len(ar.enc.NonBlank)
		}
		timer.Stop()
		st.BoundScan = scanned
		if err := c.Send(f.Plan.FoldPartner(me), tagFold, payload); err != nil {
			return nil, fmt.Errorf("fold: send: %w", err)
		}
		st.Fold.MsgsSent = 1
		st.Fold.BytesSent = len(payload)
		st.Fold.SendRectEmpty = br.Empty()
		st.CompWall = timer.Total()
		// Folded ranks own nothing; they still join the final gather.
		return &Result{Image: img, Own: RectOwn{}, Stats: st}, nil
	}

	var fold stats.Stage
	var foldTimer stats.Timer
	if e := f.Plan.FoldPartner(me); e >= 0 {
		recv, err := c.Recv(e, tagFold)
		if err != nil {
			return nil, fmt.Errorf("fold: recv from %d: %w", e, err)
		}
		if len(recv) < frame.RectBytes {
			return nil, fmt.Errorf("fold: short message from %d", e)
		}
		br := frame.GetRect(recv)
		fold.MsgsRecv = 1
		fold.BytesRecv = len(recv)
		fold.RecvRectEmpty = br.Empty()
		fold.RecvPixels = br.Area()
		if !br.Empty() {
			foldTimer.Start()
			enc, rest, err := rle.ParseWire(recv[frame.RectBytes:])
			if err != nil {
				return nil, fmt.Errorf("fold: from %d: %w", e, err)
			}
			if len(rest) != 0 || enc.Total() != br.Area() {
				return nil, fmt.Errorf("fold: malformed payload from %d", e)
			}
			img.GrowExact(br) // exact, as in BSBRC
			fold.Composited = enc.CompositeInto(img, br, f.Plan.ExtraInFront(me, viewDir))
			foldTimer.Stop()
		}
		mp.Recycle(recv)
	}

	res, err := f.Inner.Composite(restrictedComm{Comm: c, size: f.Plan.Core}, dec, viewDir, img)
	if err != nil {
		return nil, err
	}
	res.Stats.Method = f.Name()
	res.Stats.Fold = fold
	res.Stats.CompWall += foldTimer.Total()
	return res, nil
}
