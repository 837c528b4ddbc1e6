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

// BSLC is binary-swap with run-length encoding and static load balancing
// (§3.3): the half exchanged at each stage is an interleaved set of
// sections rather than a contiguous block, balancing non-blank pixels
// between partners, and the pixels travel as background/foreground
// run-length codes (2 bytes each) plus the non-blank payload. The
// encoder must scan every pixel of the sending half — the A/2^k term
// that dominates T_comp(BSLC) in Eq. (5).
type BSLC struct {
	// Granularity is the interleave section size in pixels; 0 means one
	// scanline of the full frame (the paper's Figure 6 arrangement).
	Granularity int
}

// Name implements Compositor.
func (BSLC) Name() string { return "BSLC" }

// Composite implements Compositor.
func (m BSLC) Composite(c mp.Comm, dec *partition.Decomposition, viewDir [3]float64,
	img *frame.Image) (*Result, error) {
	if err := checkWorld(c, dec); err != nil {
		return nil, err
	}
	st := &stats.Rank{RankID: c.Rank(), Method: "BSLC"}
	var timer stats.Timer
	tr := c.Tracer()
	ar := getArena()
	defer putArena(ar)
	w := img.Full().Dx()
	g := m.Granularity
	if g <= 0 {
		g = w
	}
	own0 := [1]Interval{{Lo: 0, Hi: img.Full().Area()}}
	own := own0[:]

	for stage := 1; stage <= dec.Stages(); stage++ {
		lbl := stageLabel(stage)
		c.SetStage(lbl)
		sm := tr.Begin()
		partner := dec.Partner(c.Rank(), stage)

		em := tr.Begin()
		timer.Start()
		pair := (stage % 2) * 2
		evens, odds := splitInterleavedInto(own, g, ar.iv[pair][:0], ar.iv[pair+1][:0])
		ar.iv[pair], ar.iv[pair+1] = evens, odds
		var keep, send []Interval
		if dec.Side(c.Rank(), dec.StageLevel(stage)) == 0 {
			keep, send = evens, odds
		} else {
			keep, send = odds, evens
		}
		encodeIntervals(img, w, send, &ar.enc)
		payload := ar.enc.Pack(ar.codec.Grab(8 + ar.enc.WireBytes()))
		timer.Stop()
		tr.End(em, trace.SpanEncode, lbl)

		recv, err := c.Sendrecv(partner, tagSwap, payload)
		if err != nil {
			return nil, fmt.Errorf("bslc: stage %d: %w", stage, err)
		}
		ar.codec.Retain(payload)

		cm := tr.Begin()
		timer.Start()
		e, rest, err := rle.ParseWire(recv)
		if err != nil {
			return nil, fmt.Errorf("bslc: stage %d: %w", stage, err)
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("bslc: stage %d: %d trailing bytes", stage, len(rest))
		}
		keepLen := intervalsLen(keep)
		if e.Total() != keepLen {
			return nil, fmt.Errorf("bslc: stage %d: encoding covers %d pixels, kept set has %d",
				stage, e.Total(), keepLen)
		}
		front := partnerInFront(dec, c.Rank(), stage, viewDir)
		growToIntervals(img, w, keep)
		composited := 0
		cur := intervalCursor{iv: keep}
		// The walk visits ascending positions; grab each scanline once
		// (growToIntervals guaranteed full-width storage for every
		// touched row).
		rowY := -1
		var row []frame.Pixel
		e.Walk(func(seq int, p frame.Pixel) {
			idx := cur.index(seq)
			if y := idx / w; y != rowY {
				rowY = y
				row = img.Row(y, 0, w)
			}
			if front {
				frame.OverInto(p, &row[idx%w])
			} else {
				row[idx%w] = frame.Over(row[idx%w], p)
			}
			composited++
		})
		timer.Stop()
		tr.End(cm, trace.SpanComposite, lbl)

		s := st.StageAt(stage)
		s.RecvPixels = keepLen
		s.Composited = composited
		s.Encoded = intervalsLen(send) // every pixel of the sent set is scanned
		s.Codes = len(ar.enc.Codes)
		s.SentPixels = len(ar.enc.NonBlank)
		s.BytesSent = len(payload)
		s.BytesRecv = len(recv)
		s.MsgsSent, s.MsgsRecv = 1, 1
		mp.Recycle(recv) // e, the parsed view, is dead from here on

		tr.End(sm, lbl, lbl)
		own = keep
	}
	st.CompWall = timer.Total()
	// own aliases pooled arena scratch; the Result outlives the arena.
	return &Result{Image: img, Own: IntervalOwn{W: w, Iv: append([]Interval(nil), own...)}, Stats: st}, nil
}

// splitInterleaved walks the concatenated pixel sequence described by
// intervals and deals alternating sections of g pixels to the two
// outputs: sections 0, 2, 4, … to evens, sections 1, 3, 5, … to odds.
// Both partners hold identical interval lists at the start of a stage, so
// they derive complementary halves without communicating.
func splitInterleaved(iv []Interval, g int) (evens, odds []Interval) {
	return splitInterleavedInto(iv, g, nil, nil)
}

// splitInterleavedInto is splitInterleaved appending into caller-owned
// scratch. The destinations must not alias iv: the split reads iv while
// writing them.
func splitInterleavedInto(iv []Interval, g int, evens, odds []Interval) ([]Interval, []Interval) {
	appendMerged := func(dst []Interval, lo, hi int) []Interval {
		if n := len(dst); n > 0 && dst[n-1].Hi == lo {
			dst[n-1].Hi = hi
			return dst
		}
		return append(dst, Interval{Lo: lo, Hi: hi})
	}
	pos := 0 // position in the concatenated sequence
	for _, v := range iv {
		lo := v.Lo
		for lo < v.Hi {
			// Remaining room in the current section.
			room := g - pos%g
			n := v.Hi - lo
			if n > room {
				n = room
			}
			if (pos/g)%2 == 0 {
				evens = appendMerged(evens, lo, lo+n)
			} else {
				odds = appendMerged(odds, lo, lo+n)
			}
			lo += n
			pos += n
		}
	}
	return evens, odds
}

func intervalsLen(iv []Interval) int {
	n := 0
	for _, v := range iv {
		n += v.Len()
	}
	return n
}

// packIntervals collects the pixels of the interval set in sequence
// order, copying whole row segments where the image has storage and
// leaving blanks elsewhere.
func packIntervals(img *frame.Image, w int, iv []Interval) []frame.Pixel {
	out := make([]frame.Pixel, intervalsLen(iv))
	pos := 0
	for _, v := range iv {
		for i := v.Lo; i < v.Hi; {
			y := i / w
			x0 := i % w
			x1 := w // end of this row segment, clipped to the interval
			if rowEnd := v.Hi - y*w; rowEnd < x1 {
				x1 = rowEnd
			}
			seg := x1 - x0
			bounds := img.Bounds()
			if y >= bounds.Y0 && y < bounds.Y1 {
				// Copy the stored middle of the segment; the flanks
				// outside the bounds stay blank.
				cx0, cx1 := x0, x1
				if cx0 < bounds.X0 {
					cx0 = bounds.X0
				}
				if cx1 > bounds.X1 {
					cx1 = bounds.X1
				}
				if cx0 < cx1 {
					copy(out[pos+(cx0-x0):], img.Row(y, cx0, cx1))
				}
			}
			pos += seg
			i += seg
		}
	}
	return out
}

// encodeIntervals encodes the pixels of the interval set in sequence
// order into e, reusing its storage — the fused equivalent of
// rle.Encode(packIntervals(img, w, iv)), bit-identical by construction:
// stretches without storage become arithmetic blank runs instead of
// materialized blank pixels.
func encodeIntervals(img *frame.Image, w int, iv []Interval, e *rle.Encoding) {
	var se rle.SeqEncoder
	se.Start(e)
	bounds := img.Bounds()
	for _, v := range iv {
		for i := v.Lo; i < v.Hi; {
			y := i / w
			x0 := i % w
			x1 := w // end of this row segment, clipped to the interval
			if rowEnd := v.Hi - y*w; rowEnd < x1 {
				x1 = rowEnd
			}
			seg := x1 - x0
			// Clip the segment to the stored bounds; flanks are blank.
			cx0, cx1 := x0, x1
			if cx0 < bounds.X0 {
				cx0 = bounds.X0
			}
			if cx1 > bounds.X1 {
				cx1 = bounds.X1
			}
			if y < bounds.Y0 || y >= bounds.Y1 || cx0 >= cx1 {
				se.Blank(seg)
			} else {
				se.Blank(cx0 - x0)
				se.Pixels(img.Row(y, cx0, cx1))
				se.Blank(x1 - cx1)
			}
			i += seg
		}
	}
	se.Finish()
}

// growToIntervals pre-grows the image to the bounding box of the interval
// set so per-pixel compositing does not repeatedly reallocate.
func growToIntervals(img *frame.Image, w int, iv []Interval) {
	if len(iv) == 0 {
		return
	}
	r := frame.ZR
	for _, v := range iv {
		y0, y1 := v.Lo/w, (v.Hi-1)/w
		r = r.Union(frame.Rect{X0: 0, Y0: y0, X1: w, Y1: y1 + 1})
	}
	img.Grow(r)
}

// intervalCursor maps sequence positions to linear indices for
// monotonically non-decreasing queries (the order rle.Walk produces).
type intervalCursor struct {
	iv   []Interval
	i    int // current interval
	base int // sequence position of iv[i].Lo
}

func newIntervalCursor(iv []Interval) *intervalCursor {
	return &intervalCursor{iv: iv}
}

func (c *intervalCursor) index(seq int) int {
	for seq >= c.base+c.iv[c.i].Len() {
		c.base += c.iv[c.i].Len()
		c.i++
	}
	return c.iv[c.i].Lo + (seq - c.base)
}
