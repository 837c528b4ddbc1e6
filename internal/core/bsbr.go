package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// BSBR is binary-swap with bounding rectangle (§3.2): each rank tracks
// the bounding rectangle of its non-blank pixels; at every stage the
// message carries the sending bounding rectangle (four short integers, 8
// bytes) followed by the raw pixels inside it. An empty rectangle costs
// only the 8-byte header. After compositing, the new local bounding
// rectangle is the O(1) union of the kept and received rectangles —
// the initial O(A) scan happens once, before stage 1.
type BSBR struct{}

// Name implements Compositor.
func (BSBR) Name() string { return "BSBR" }

// Composite implements Compositor.
func (BSBR) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if err := checkWorld(c, dec); err != nil {
		return nil, err
	}
	st := &stats.Rank{RankID: c.Rank(), Method: "BSBR"}
	var timer stats.Timer
	tr := c.Tracer()
	ar := getArena()
	defer putArena(ar)
	region := img.Full()

	bm := tr.Begin()
	timer.Start()
	localBR, scanned := img.BoundingRect(region)
	timer.Stop()
	tr.End(bm, trace.SpanBound, "")
	st.BoundScan = scanned

	for stage := 1; stage <= dec.Stages(); stage++ {
		lbl := stageLabel(stage)
		c.SetStage(lbl)
		sm := tr.Begin()
		keep, send := stageHalves(dec, c.Rank(), stage, region)
		partner := dec.Partner(c.Rank(), stage)

		em := tr.Begin()
		timer.Start()
		sendBR := localBR.Intersect(send)
		keepBR := localBR.Intersect(keep)
		payload := ar.rect(sendBR, sendBR.Area()*frame.PixelBytes)
		if !sendBR.Empty() {
			payload = frame.EncodeRegion(img, sendBR, payload)
		}
		timer.Stop()
		tr.End(em, trace.SpanEncode, lbl)

		recv, err := c.Sendrecv(partner, tagSwap, payload)
		if err != nil {
			return nil, fmt.Errorf("bsbr: stage %d: %w", stage, err)
		}
		ar.codec.Retain(payload)
		if len(recv) < frame.RectBytes {
			return nil, fmt.Errorf("bsbr: stage %d: short message (%d bytes)", stage, len(recv))
		}
		recvBR := frame.GetRect(recv)
		body := recv[frame.RectBytes:]
		if recvBR.Empty() && len(body) != 0 {
			return nil, fmt.Errorf("bsbr: stage %d: %d body bytes with an empty rectangle",
				stage, len(body))
		}

		s := st.StageAt(stage)
		s.SentPixels = sendBR.Area()
		s.SendRectEmpty = sendBR.Empty()
		s.BytesSent = len(payload)
		s.BytesRecv = len(recv)
		s.MsgsSent, s.MsgsRecv = 1, 1
		s.RecvRectEmpty = recvBR.Empty()
		s.RecvPixels = recvBR.Area()

		if !recvBR.Empty() {
			if !keep.ContainsRect(recvBR) {
				return nil, fmt.Errorf("bsbr: stage %d: received rect %v outside kept half %v",
					stage, recvBR, keep)
			}
			if len(body) != recvBR.Area()*frame.PixelBytes {
				return nil, fmt.Errorf("bsbr: stage %d: %d body bytes for rect %v",
					stage, len(body), recvBR)
			}
			cm := tr.Begin()
			timer.Start()
			img.GrowExact(recvBR) // exact, as in BSBRC
			s.Composited = img.CompositeWire(recvBR, body,
				partnerInFront(dec, c.Rank(), stage, viewDir))
			timer.Stop()
			tr.End(cm, trace.SpanComposite, lbl)
		}
		mp.Recycle(recv)

		tr.End(sm, lbl, lbl)
		localBR = keepBR.Union(recvBR)
		region = keep
	}
	st.CompWall = timer.Total()
	return &Result{Image: img, Own: RectOwn{R: region}, Stats: st}, nil
}
