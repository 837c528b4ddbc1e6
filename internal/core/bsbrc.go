package core

import (
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
	"sortlast/internal/partition"
	"sortlast/internal/rle"
	"sortlast/internal/stats"
	"sortlast/internal/trace"
)

// BSBRC is binary-swap with bounding rectangle and run-length encoding
// (§3.4), the paper's best method: the encoder scans only the pixels of
// the sending bounding rectangle (A_send^k instead of A/2^k), and the
// message carries the rectangle (8 bytes), the run-length codes, and the
// non-blank pixels — avoiding both BSLC's full-half encoding scans and
// BSBR's blank-pixel traffic inside sparse rectangles.
type BSBRC struct{}

// Name implements Compositor.
func (BSBRC) Name() string { return "BSBRC" }

// Composite implements Compositor.
func (BSBRC) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if err := checkWorld(c, dec); err != nil {
		return nil, err
	}
	st := &stats.Rank{RankID: c.Rank(), Method: "BSBRC"}
	var timer stats.Timer
	tr := c.Tracer()
	ar := getArena()
	defer putArena(ar)
	region := img.Full()

	// Algorithm step 3-4: find the local bounding rectangle once.
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

		// Steps 6-13: split the bounding rectangle at the centerline,
		// encode the sending part, pack rectangle + codes + pixels.
		em := tr.Begin()
		timer.Start()
		sendBR := localBR.Intersect(send)
		keepBR := localBR.Intersect(keep)
		payload := ar.rect(sendBR, 64)
		s := st.StageAt(stage)
		if !sendBR.Empty() {
			rle.EncodeRect(img, sendBR, &ar.enc)
			payload = ar.enc.Pack(payload)
			s.Encoded = sendBR.Area() // every pixel of the rectangle is scanned
			s.Codes = len(ar.enc.Codes)
			s.SentPixels = len(ar.enc.NonBlank)
		}
		timer.Stop()
		tr.End(em, trace.SpanEncode, lbl)

		// Steps 13-14: exchange with the paired processor.
		recv, err := c.Sendrecv(partner, tagSwap, payload)
		if err != nil {
			return nil, fmt.Errorf("bsbrc: stage %d: %w", stage, err)
		}
		ar.codec.Retain(payload)
		if len(recv) < frame.RectBytes {
			return nil, fmt.Errorf("bsbrc: stage %d: short message (%d bytes)", stage, len(recv))
		}
		recvBR := frame.GetRect(recv)
		if recvBR.Empty() && len(recv) != frame.RectBytes {
			return nil, fmt.Errorf("bsbrc: stage %d: %d trailing bytes with an empty rectangle",
				stage, len(recv)-frame.RectBytes)
		}

		s.SendRectEmpty = sendBR.Empty()
		s.RecvRectEmpty = recvBR.Empty()
		s.RecvPixels = recvBR.Area()
		s.BytesSent = len(payload)
		s.BytesRecv = len(recv)
		s.MsgsSent, s.MsgsRecv = 1, 1

		// Steps 16-20: decode and composite only the non-blank pixels.
		if !recvBR.Empty() {
			if !keep.ContainsRect(recvBR) {
				return nil, fmt.Errorf("bsbrc: stage %d: received rect %v outside kept half %v",
					stage, recvBR, keep)
			}
			cm := tr.Begin()
			timer.Start()
			e, rest, err := rle.ParseWire(recv[frame.RectBytes:])
			if err != nil {
				return nil, fmt.Errorf("bsbrc: stage %d: %w", stage, err)
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("bsbrc: stage %d: %d trailing bytes", stage, len(rest))
			}
			if e.Total() != recvBR.Area() {
				return nil, fmt.Errorf("bsbrc: stage %d: encoding covers %d pixels, rect %v has %d",
					stage, e.Total(), recvBR, recvBR.Area())
			}
			// Grow the working image to exactly the received rectangle:
			// callers restore it with Image.CopyFrom, which keeps storage
			// across frames, so Grow's geometric padding would only pin
			// memory.
			img.GrowExact(recvBR)
			s.Composited = e.CompositeInto(img, recvBR, partnerInFront(dec, c.Rank(), stage, viewDir))
			timer.Stop()
			tr.End(cm, trace.SpanComposite, lbl)
		}
		mp.Recycle(recv) // e, the parsed view, is dead from here on

		tr.End(sm, lbl, lbl)
		// Step 21: the new local bounding rectangle is the O(1) union.
		localBR = keepBR.Union(recvBR)
		region = keep
	}
	st.CompWall = timer.Total()
	return &Result{Image: img, Own: RectOwn{R: region}, Stats: st}, nil
}
