package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// BS is the plain binary-swap compositing method of Ma et al. (§3.1): at
// stage k paired processors exchange complementary halves of their
// current region as raw pixels — 16 bytes each, blanks included — and
// composite the received half over/under their own.
type BS struct{}

// Name implements Compositor.
func (BS) Name() string { return "BS" }

// Composite implements Compositor.
func (BS) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if err := checkWorld(c, dec); err != nil {
		return nil, err
	}
	st := &stats.Rank{RankID: c.Rank(), Method: "BS"}
	var timer stats.Timer
	tr := c.Tracer()
	ar := getArena()
	defer putArena(ar)
	region := img.Full()

	for stage := 1; stage <= dec.Stages(); stage++ {
		lbl := stageLabel(stage)
		c.SetStage(lbl)
		sm := tr.Begin()
		keep, send := stageHalves(dec, c.Rank(), stage, region)
		partner := dec.Partner(c.Rank(), stage)

		em := tr.Begin()
		timer.Start()
		payload := frame.EncodeRegion(img, send, ar.codec.Grab(send.Area()*frame.PixelBytes))
		timer.Stop()
		tr.End(em, trace.SpanEncode, lbl)

		recv, err := c.Sendrecv(partner, tagSwap, payload)
		if err != nil {
			return nil, fmt.Errorf("bs: stage %d: %w", stage, err)
		}
		ar.codec.Retain(payload)
		if len(recv) != keep.Area()*frame.PixelBytes {
			return nil, fmt.Errorf("bs: stage %d: got %d bytes for %d pixels",
				stage, len(recv), keep.Area())
		}

		cm := tr.Begin()
		timer.Start()
		img.GrowExact(keep) // exact, as in BSBRC
		ops := img.CompositeWire(keep, recv, partnerInFront(dec, c.Rank(), stage, viewDir))
		timer.Stop()
		mp.Recycle(recv)
		tr.End(cm, trace.SpanComposite, lbl)

		s := st.StageAt(stage)
		s.RecvPixels = keep.Area()
		s.Composited = ops
		s.SentPixels = send.Area()
		s.BytesSent = len(payload)
		s.BytesRecv = len(recv)
		s.MsgsSent, s.MsgsRecv = 1, 1

		tr.End(sm, lbl, lbl)
		region = keep
	}
	st.CompWall = timer.Total()
	return &Result{Image: img, Own: RectOwn{R: region}, Stats: st}, nil
}
