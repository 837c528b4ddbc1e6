package core

import (
	"encoding/binary"
	"fmt"

	"sortlast/internal/frame"
	"sortlast/internal/mp"
)

// Ownership describes which pixels of the full frame a rank holds after
// compositing, and how to move them. Rect ownership comes out of the
// block-split methods (BS, BSBR, BSBRC, direct-send, pipeline, tree);
// interval ownership comes out of BSLC's interleaved split.
type Ownership interface {
	// Area returns the number of owned pixels.
	Area() int
	// Pack collects the owned pixels from img in canonical order.
	Pack(img *frame.Image) []frame.Pixel
	// Unpack stores packed pixels into img in the same order.
	Unpack(img *frame.Image, px []frame.Pixel) error
	// AppendPixels appends the owned pixels' wire bytes in the same
	// canonical order as Pack, without materializing a pixel slice.
	AppendPixels(img *frame.Image, buf []byte) []byte
	// StoreWire writes Area()*frame.PixelBytes wire bytes into img in
	// the same order, the fused equivalent of Unpack(UnpackPixels(...)).
	StoreWire(img *frame.Image, wire []byte) error
	// AppendWire serializes the descriptor (self-describing, for the
	// final gather).
	AppendWire(buf []byte) []byte
	// Validate checks the descriptor against the full frame it claims
	// to describe; the gather rejects descriptors that do not fit
	// before touching pixel storage.
	Validate(full frame.Rect) error
	// Extent returns a rectangle covering every pixel StoreWire writes,
	// so the gather can size the final image once; ZR when the pixels
	// are stored one by one and only the non-blank ones grow the image.
	Extent() frame.Rect
}

const (
	ownKindRect     = 0
	ownKindInterval = 1
	ownKindRectSet  = 2
)

// RectOwn is rectangular ownership.
type RectOwn struct {
	R frame.Rect
}

// Area implements Ownership.
func (o RectOwn) Area() int { return o.R.Area() }

// Pack implements Ownership.
func (o RectOwn) Pack(img *frame.Image) []frame.Pixel { return img.PackRegion(o.R) }

// Unpack implements Ownership.
func (o RectOwn) Unpack(img *frame.Image, px []frame.Pixel) error {
	if len(px) != o.R.Area() {
		return fmt.Errorf("core: %d pixels for rect %v (want %d)", len(px), o.R, o.R.Area())
	}
	img.StoreRegion(o.R, px)
	return nil
}

// AppendPixels implements Ownership.
func (o RectOwn) AppendPixels(img *frame.Image, buf []byte) []byte {
	return frame.EncodeRegion(img, o.R, buf)
}

// StoreWire implements Ownership.
func (o RectOwn) StoreWire(img *frame.Image, wire []byte) error {
	if len(wire) != o.R.Area()*frame.PixelBytes {
		return fmt.Errorf("core: %d wire bytes for rect %v (want %d)",
			len(wire), o.R, o.R.Area()*frame.PixelBytes)
	}
	img.StoreWire(o.R, wire)
	return nil
}

// AppendWire implements Ownership.
func (o RectOwn) AppendWire(buf []byte) []byte {
	buf = append(buf, ownKindRect)
	var rb [frame.RectBytes]byte
	frame.PutRect(rb[:], o.R)
	return append(buf, rb[:]...)
}

// Validate implements Ownership.
func (o RectOwn) Validate(full frame.Rect) error {
	if !full.ContainsRect(o.R) {
		return fmt.Errorf("core: owned rect %v outside frame %v", o.R, full)
	}
	return nil
}

// Extent implements Ownership.
func (o RectOwn) Extent() frame.Rect { return o.R }

// RectSetOwn is ownership of an ordered list of disjoint non-empty
// rectangles — the tile set a tile-routed compositor owns. An empty list
// is valid: with more ranks than tiles, some ranks own nothing. Pixels
// travel in list order, row-major within each rectangle.
type RectSetOwn struct {
	Rs []frame.Rect
}

// Area implements Ownership.
func (o RectSetOwn) Area() int {
	n := 0
	for _, r := range o.Rs {
		n += r.Area()
	}
	return n
}

// Pack implements Ownership.
func (o RectSetOwn) Pack(img *frame.Image) []frame.Pixel {
	out := make([]frame.Pixel, 0, o.Area())
	for _, r := range o.Rs {
		out = append(out, img.PackRegion(r)...)
	}
	return out
}

// Unpack implements Ownership.
func (o RectSetOwn) Unpack(img *frame.Image, px []frame.Pixel) error {
	if len(px) != o.Area() {
		return fmt.Errorf("core: %d pixels for rect set of %d", len(px), o.Area())
	}
	for _, r := range o.Rs {
		img.StoreRegion(r, px[:r.Area()])
		px = px[r.Area():]
	}
	return nil
}

// AppendPixels implements Ownership.
func (o RectSetOwn) AppendPixels(img *frame.Image, buf []byte) []byte {
	for _, r := range o.Rs {
		buf = frame.EncodeRegion(img, r, buf)
	}
	return buf
}

// StoreWire implements Ownership.
func (o RectSetOwn) StoreWire(img *frame.Image, wire []byte) error {
	if len(wire) != o.Area()*frame.PixelBytes {
		return fmt.Errorf("core: %d wire bytes for rect set of %d pixels",
			len(wire), o.Area())
	}
	for _, r := range o.Rs {
		n := r.Area() * frame.PixelBytes
		img.StoreWire(r, wire[:n])
		wire = wire[n:]
	}
	return nil
}

// AppendWire implements Ownership.
func (o RectSetOwn) AppendWire(buf []byte) []byte {
	buf = append(buf, ownKindRectSet)
	buf = appendU32(buf, uint32(len(o.Rs)))
	for _, r := range o.Rs {
		var rb [frame.RectBytes]byte
		frame.PutRect(rb[:], r)
		buf = append(buf, rb[:]...)
	}
	return buf
}

// Validate implements Ownership.
func (o RectSetOwn) Validate(full frame.Rect) error {
	for _, r := range o.Rs {
		if r.Empty() {
			return fmt.Errorf("core: empty rect %v in rect-set ownership", r)
		}
		if !full.ContainsRect(r) {
			return fmt.Errorf("core: owned rect %v outside frame %v", r, full)
		}
	}
	return nil
}

// Extent implements Ownership.
func (o RectSetOwn) Extent() frame.Rect {
	ext := frame.ZR
	for _, r := range o.Rs {
		ext = ext.Union(r)
	}
	return ext
}

// Interval is a half-open range of row-major linear pixel indices.
type Interval struct {
	Lo, Hi int
}

// Len returns the interval length.
func (iv Interval) Len() int { return iv.Hi - iv.Lo }

// IntervalOwn is ownership of a set of linear-index intervals over a
// frame of width W.
type IntervalOwn struct {
	W  int
	Iv []Interval
}

// Area implements Ownership.
func (o IntervalOwn) Area() int {
	n := 0
	for _, iv := range o.Iv {
		n += iv.Len()
	}
	return n
}

// Pack implements Ownership.
func (o IntervalOwn) Pack(img *frame.Image) []frame.Pixel {
	out := make([]frame.Pixel, 0, o.Area())
	for _, iv := range o.Iv {
		for i := iv.Lo; i < iv.Hi; i++ {
			out = append(out, img.At(i%o.W, i/o.W))
		}
	}
	return out
}

// Unpack implements Ownership.
func (o IntervalOwn) Unpack(img *frame.Image, px []frame.Pixel) error {
	if len(px) != o.Area() {
		return fmt.Errorf("core: %d pixels for interval set of %d", len(px), o.Area())
	}
	k := 0
	for _, iv := range o.Iv {
		for i := iv.Lo; i < iv.Hi; i++ {
			if !px[k].Blank() {
				img.Set(i%o.W, i/o.W, px[k])
			}
			k++
		}
	}
	return nil
}

// AppendPixels implements Ownership.
func (o IntervalOwn) AppendPixels(img *frame.Image, buf []byte) []byte {
	var px [frame.PixelBytes]byte
	for _, iv := range o.Iv {
		for i := iv.Lo; i < iv.Hi; i++ {
			frame.PutPixel(px[:], img.At(i%o.W, i/o.W))
			buf = append(buf, px[:]...)
		}
	}
	return buf
}

// StoreWire implements Ownership.
func (o IntervalOwn) StoreWire(img *frame.Image, wire []byte) error {
	if len(wire) != o.Area()*frame.PixelBytes {
		return fmt.Errorf("core: %d wire bytes for interval set of %d pixels",
			len(wire), o.Area())
	}
	k := 0
	for _, iv := range o.Iv {
		for i := iv.Lo; i < iv.Hi; i++ {
			if p := frame.GetPixel(wire[k*frame.PixelBytes:]); !p.Blank() {
				img.Set(i%o.W, i/o.W, p)
			}
			k++
		}
	}
	return nil
}

// AppendWire implements Ownership.
func (o IntervalOwn) AppendWire(buf []byte) []byte {
	buf = append(buf, ownKindInterval)
	buf = appendU32(buf, uint32(o.W))
	buf = appendU32(buf, uint32(len(o.Iv)))
	for _, iv := range o.Iv {
		buf = appendU32(buf, uint32(iv.Lo))
		buf = appendU32(buf, uint32(iv.Hi))
	}
	return buf
}

// Validate implements Ownership.
func (o IntervalOwn) Validate(full frame.Rect) error {
	if o.W != full.Dx() {
		return fmt.Errorf("core: interval ownership width %d, frame width %d", o.W, full.Dx())
	}
	limit := full.Area()
	for _, iv := range o.Iv {
		if iv.Lo < 0 || iv.Hi > limit {
			return fmt.Errorf("core: interval %+v outside frame of %d pixels", iv, limit)
		}
	}
	return nil
}

// Extent implements Ownership: interval stores set only the non-blank
// pixels, so the image grows with them instead of being presized.
func (o IntervalOwn) Extent() frame.Rect { return frame.ZR }

// ParseOwnership decodes an ownership descriptor from the front of buf
// and returns the remaining bytes.
func ParseOwnership(buf []byte) (Ownership, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("core: empty ownership descriptor")
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case ownKindRect:
		if len(buf) < frame.RectBytes {
			return nil, nil, fmt.Errorf("core: truncated rect ownership")
		}
		return RectOwn{R: frame.GetRect(buf)}, buf[frame.RectBytes:], nil
	case ownKindInterval:
		w, buf, err := readU32(buf)
		if err != nil {
			return nil, nil, err
		}
		n, buf, err := readU32(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(buf) < int(n)*8 {
			return nil, nil, fmt.Errorf("core: truncated interval ownership")
		}
		o := IntervalOwn{W: int(w), Iv: make([]Interval, n)}
		for i := range o.Iv {
			o.Iv[i].Lo = int(binary.LittleEndian.Uint32(buf[i*8:]))
			o.Iv[i].Hi = int(binary.LittleEndian.Uint32(buf[i*8+4:]))
			if o.Iv[i].Hi < o.Iv[i].Lo {
				return nil, nil, fmt.Errorf("core: inverted interval %+v", o.Iv[i])
			}
		}
		return o, buf[int(n)*8:], nil
	case ownKindRectSet:
		n, buf, err := readU32(buf)
		if err != nil {
			return nil, nil, err
		}
		if len(buf) < int(n)*frame.RectBytes {
			return nil, nil, fmt.Errorf("core: truncated rect-set ownership")
		}
		o := RectSetOwn{Rs: make([]frame.Rect, n)}
		for i := range o.Rs {
			o.Rs[i] = frame.GetRect(buf[i*frame.RectBytes:])
		}
		return o, buf[int(n)*frame.RectBytes:], nil
	default:
		return nil, nil, fmt.Errorf("core: unknown ownership kind %d", kind)
	}
}

// GatherImage assembles the distributed final image at root from every
// rank's composited result. Non-root ranks receive nil. The payload is
// self-describing (ownership descriptor + packed pixels), so the root
// needs no knowledge of the compositor that produced the distribution.
// The root validates every part before it allocates the final image,
// once, over the union of the owned extents, and recycles each part's
// buffer after storing it.
func GatherImage(c mp.Comm, root int, res *Result) (*frame.Image, error) {
	sc := GetScratch()
	defer sc.Release()
	payload := res.Own.AppendWire(sc.Grab(gatherHeaderBytes + res.Own.Area()*frame.PixelBytes))
	payload = res.Own.AppendPixels(res.Image, payload)
	parts, err := c.Gather(root, payload)
	sc.Retain(payload)
	if err != nil {
		return nil, err
	}
	if c.Rank() != root {
		return nil, nil
	}
	full := res.Image.Full()
	owns := make([]Ownership, len(parts))
	bodies := make([][]byte, len(parts))
	ext := frame.ZR
	for r, part := range parts {
		own, rest, err := ParseOwnership(part)
		if err != nil {
			return nil, fmt.Errorf("core: gather from rank %d: %w", r, err)
		}
		if err := own.Validate(full); err != nil {
			return nil, fmt.Errorf("core: gather from rank %d: %w", r, err)
		}
		if len(rest) != own.Area()*frame.PixelBytes {
			return nil, fmt.Errorf("core: gather from rank %d: %d payload bytes for %d pixels",
				r, len(rest), own.Area())
		}
		owns[r], bodies[r] = own, rest
		ext = ext.Union(own.Extent())
	}
	final := frame.NewImageBounds(full.Dx(), full.Dy(), ext)
	for r, own := range owns {
		if err := own.StoreWire(final, bodies[r]); err != nil {
			return nil, fmt.Errorf("core: gather from rank %d: %w", r, err)
		}
		mp.Recycle(parts[r])
	}
	return final, nil
}

// gatherHeaderBytes is the scratch a gather payload reserves for its
// ownership descriptor; longer descriptors grow the buffer once and the
// pooled scratch keeps the growth.
const gatherHeaderBytes = 64

func appendU32(buf []byte, v uint32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func readU32(buf []byte) (uint32, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("core: truncated u32")
	}
	return binary.LittleEndian.Uint32(buf), buf[4:], nil
}
