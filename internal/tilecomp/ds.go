package tilecomp

import (
	"fmt"

	"sortlast/internal/core"
	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// DS is sparse direct-send: one route round ships each strip owner the
// run-length-encoded intersection of the sender's bounding rectangle
// with the owner's strip (the BSBRC message format — rectangle header +
// codes + non-blank pixels), then every owner composites the P-1
// received regions plus its own pixels in depth order. Communication is
// P-1 messages per rank regardless of topology, so any rank count works.
type DS struct {
	// Lay fixes the rank geometry when the world is not described by the
	// decomposition passed to Composite (the non-power-of-two case);
	// nil uses that decomposition.
	Lay partition.Layout
}

// Name implements core.Compositor.
func (DS) Name() string { return "DS" }

// Layout returns the configured geometry (nil when the decomposition
// argument is used).
func (d DS) Layout() partition.Layout { return d.Lay }

// Composite implements core.Compositor.
func (d DS) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*core.Result, error) {
	lay, err := resolveLayout(d.Lay, dec, c)
	if err != nil {
		return nil, err
	}
	p, me := c.Size(), c.Rank()
	st := &stats.Rank{RankID: me, Method: "DS"}
	var timer stats.Timer
	tr := c.Tracer()
	sc := core.GetScratch()
	defer sc.Release()
	full := img.Full()
	// Stage 1 carries the route round (encode + sends), stage 2 the merge
	// pass (receives + composites), mirroring the two cost terms of
	// costmodel.DirectSendCost so report.MeasuredVsModeled gets a real
	// per-stage breakdown instead of one degenerate stage.
	route, merge := st.StageAt(1), st.StageAt(2)

	c.SetStage(trace.StageRoute)
	bm := tr.Begin()
	timer.Start()
	localBR, scanned := img.BoundingRect(full)
	timer.Stop()
	tr.End(bm, trace.SpanBound, "")
	st.BoundScan = scanned

	// Route: one encoded region per strip owner. Sends are buffered, so
	// the fan-out never blocks on slow receivers.
	em := tr.Begin()
	for dst := 0; dst < p; dst++ {
		if dst == me {
			continue
		}
		sr := localBR.Intersect(StripRect(full, dst, p))
		timer.Start()
		payload := sc.Rect(sr, 64)
		if !sr.Empty() {
			rle.EncodeRect(img, sr, sc.Enc())
			payload = sc.Enc().Pack(payload)
			route.Encoded += sr.Area()
			route.Codes += len(sc.Enc().Codes)
			route.SentPixels += len(sc.Enc().NonBlank)
		} else {
			route.SendRectEmpty = true
		}
		timer.Stop()
		if err := c.Send(dst, tagDS, payload); err != nil {
			return nil, fmt.Errorf("ds: send to %d: %w", dst, err)
		}
		sc.Retain(payload)
		route.MsgsSent++
		route.BytesSent += len(payload)
	}
	tr.End(em, trace.SpanEncode, trace.StageRoute)
	// Umbrella span (Name == Stage), the per-stage measured total the
	// reports sum — the binary-swap family's stageK spans' counterpart.
	tr.End(em, trace.StageRoute, trace.StageRoute)

	// Merge: composite my strip's contributions front-to-back. The
	// layout's global depth order is a valid per-pixel order, so walking
	// it and putting each new region behind the accumulation is exact.
	myStrip := StripRect(full, me, p)
	out := frame.NewImage(full.Dx(), full.Dy())
	c.SetStage(trace.StageMerge)
	cm := tr.Begin()
	for _, src := range lay.DepthOrder(viewDir) {
		if src == me {
			if r := localBR.Intersect(myStrip); !r.Empty() {
				timer.Start()
				merge.Composited += out.CompositeImage(img, r, false)
				timer.Stop()
			}
			continue
		}
		recv, err := c.Recv(src, tagDS)
		if err != nil {
			return nil, fmt.Errorf("ds: recv from %d: %w", src, err)
		}
		if len(recv) < frame.RectBytes {
			return nil, fmt.Errorf("ds: short message from %d", src)
		}
		r := frame.GetRect(recv)
		merge.MsgsRecv++
		merge.BytesRecv += len(recv)
		if r.Empty() {
			if len(recv) != frame.RectBytes {
				return nil, fmt.Errorf("ds: %d trailing bytes with an empty rectangle from %d",
					len(recv)-frame.RectBytes, src)
			}
			merge.RecvRectEmpty = true
			continue
		}
		if !myStrip.ContainsRect(r) {
			return nil, fmt.Errorf("ds: rect %v from %d outside strip %v", r, src, myStrip)
		}
		merge.RecvPixels += r.Area()
		e, rest, err := parseRegion(r, recv[frame.RectBytes:])
		if err != nil {
			return nil, fmt.Errorf("ds: from %d: %w", src, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("ds: %d trailing bytes from %d", len(rest), src)
		}
		timer.Start()
		merge.Composited += e.CompositeInto(out, r, false)
		timer.Stop()
		mp.Recycle(recv) // e, the parsed view, is dead from here on
	}
	tr.End(cm, trace.SpanComposite, trace.StageMerge)
	tr.End(cm, trace.StageMerge, trace.StageMerge)
	c.SetStage("")
	st.CompWall = timer.Total()
	return &core.Result{Image: out, Own: core.RectOwn{R: myStrip}, Stats: st}, nil
}
