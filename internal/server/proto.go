package server

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"sortlast/internal/harness"
	"sortlast/internal/trace"
)

// Wire protocol of the frame service: length-prefixed frames over one
// TCP connection, requests answered in order.
//
//	client → server:  [u32 LE n][n bytes: JSON Request]
//	server → client:  [u32 LE n][n bytes: JSON Response]
//	                  then, iff Response.OK:
//	                  [u32 LE m][m bytes: 8-bit gray pixels, row-major]
//
// The JSON header keeps the protocol trivially debuggable and
// extensible; the pixel payload stays raw because it dominates the
// bytes. A connection carries any number of requests sequentially;
// clients wanting concurrency open several connections.

// Frame size limits. Requests are small JSON documents; replies are
// bounded by the largest image the server will render.
const (
	MaxRequestFrame = 1 << 16
	MaxReplyFrame   = 1 << 28
)

// DefaultMethod is the compositing method used when a request leaves
// Method empty. Layers that key on the resolved method (the fleet
// gateway's frame cache) normalize against it.
const DefaultMethod = "bsbrc"

// Quality contract names accepted in Request.Quality, re-exported from
// the harness so the wire protocol and the execution layer can never
// disagree on the ladder. See harness/quality.go for the semantics.
const (
	QualityFull    = harness.QualityFull
	QualityApprox  = harness.QualityApprox
	QualityPreview = harness.QualityPreview
)

// NormalizeQuality and QualityRank re-export the harness quality
// helpers at the protocol layer, so gateways that key caches by
// contract need not import the execution harness.
func NormalizeQuality(q string) (string, error) { return harness.NormalizeQuality(q) }

// QualityRank orders contracts by fidelity (full > approx > preview);
// see harness.QualityRank.
func QualityRank(q string) int { return harness.QualityRank(q) }

// Request asks for one frame.
type Request struct {
	// Dataset is a built-in workload name (engine_low, engine_high,
	// head, cube).
	Dataset string `json:"dataset"`
	// Method is the compositing method (see sortlast.Methods). Empty
	// means bsbrc.
	Method string `json:"method,omitempty"`
	// Width and Height set the image size.
	Width  int `json:"width"`
	Height int `json:"height"`
	// RotX and RotY rotate the viewpoint in degrees.
	RotX float64 `json:"rotx,omitempty"`
	RotY float64 `json:"roty,omitempty"`
	// Shaded enables gradient-based Lambertian shading.
	Shaded bool `json:"shaded,omitempty"`
	// DeadlineMS bounds queue wait plus execution on the server side; a
	// request that cannot be dispatched before its deadline is answered
	// with CodeDeadline instead of rendering. Zero means the server
	// default.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`

	// Quality is the request's quality contract: "" or "full" (exact,
	// byte-identical to an unconstrained render), "approx" (raised
	// early-termination cutoff, sub-threshold regions dropped before
	// encode, worst-case error reported in Stats.ErrorBound), or
	// "preview" (quarter-resolution render; the reply carries the
	// reduced dimensions and the client library upscales). Unknown
	// names are rejected with CodeBadRequest.
	Quality string `json:"quality,omitempty"`
	// DegradeOK opts into degraded delivery instead of failure: when
	// the admission queue is saturated the server steps the contract
	// down the full→approx→preview ladder rather than answering
	// CodeOverloaded, and the frame watchdog demotes a slow frame to
	// approx on its first trip instead of failing the world. The
	// delivered contract is reported in Stats.Quality.
	DegradeOK bool `json:"degrade_ok,omitempty"`

	// Trace is the distributed trace context: the caller's trace ID,
	// parent span, and sampling decision. Nil means untraced (the server
	// still records locally for its own flight recorder). When Sampled,
	// the reply carries the server's span tree in Response.Trace so the
	// caller can assemble one merged cross-process trace.
	Trace *trace.Context `json:"trace,omitempty"`
}

// Typed error codes carried in Response.Code. The client library maps
// them to sentinel errors.
const (
	CodeOverloaded = "overloaded"  // admission queue full — retry later
	CodeBadRequest = "bad_request" // request invalid; do not retry
	CodeDeadline   = "deadline_exceeded"
	CodeShutdown   = "shutting_down"
	CodeInternal   = "internal"
	// CodeWorldFailed means the resident rank world died or wedged while
	// the request was in flight; the world is being rebuilt and the
	// request may be retried (the supervision layer restarts the pool,
	// so a later attempt lands on a fresh world).
	CodeWorldFailed = "world_failed"
)

// Response is the header of one reply.
type Response struct {
	OK    bool   `json:"ok"`
	Code  string `json:"code,omitempty"`
	Error string `json:"error,omitempty"`

	// Width and Height echo the rendered size; the pixel payload that
	// follows holds Width*Height gray bytes.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`

	Stats FrameStats `json:"stats,omitempty"`

	// Trace is the server's span tree for this request, present only
	// when the request's trace context asked for sampling. Span-capped
	// (trace.MaxWireSpans) so the reply header stays inside
	// MaxRequestFrame.
	Trace *trace.Wire `json:"trace,omitempty"`
}

// FrameStats reports how the frame moved through the serving pipeline.
type FrameStats struct {
	// QueueMS is the time from admission to dispatch into the rank pool.
	QueueMS float64 `json:"queue_ms"`
	// RenderMS is the slowest rank's rendering wall time: the render
	// phase's share of the frame's critical path.
	RenderMS float64 `json:"render_ms"`
	// TotalMS is the server-side wall time from admission to reply.
	TotalMS float64 `json:"total_ms"`
	// WireBytes counts compositing bytes received across all ranks for
	// this frame (ranks that finish after the reply was sent may be
	// missing; the /metrics total is exact).
	WireBytes int64 `json:"wire_bytes"`

	// Replica is the 1-based index of the fleet replica that rendered
	// this frame; 0 when the frame was served by a standalone renderd or
	// from the gateway's frame cache. Set only by the fleet gateway.
	Replica int `json:"replica,omitempty"`
	// Hedged reports that the fleet gateway issued a hedged dispatch to
	// a second replica for this request.
	Hedged bool `json:"hedged,omitempty"`
	// Cached reports that the reply bytes came from the gateway's
	// camera-quantized frame cache without touching a world.
	Cached bool `json:"cached,omitempty"`

	// Quality is the delivered quality contract (full, approx,
	// preview) — what was actually rendered, which DegradeOK requests
	// may find below what they asked for. Degraded flags exactly that
	// case. ErrorBound is the worst-case per-pixel 8-bit gray error of
	// a non-full delivery against the full render (0 for preview:
	// resolution degrades, pixel values do not — and 0 for full).
	Quality    string  `json:"quality,omitempty"`
	Degraded   bool    `json:"degraded,omitempty"`
	ErrorBound float64 `json:"error_bound,omitempty"`

	// TraceID names the distributed trace this frame belongs to (hex),
	// even when the request was unsampled: it keys the server's
	// /debug/flight entries and the exemplars on the latency histograms.
	TraceID string `json:"trace_id,omitempty"`
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one length-prefixed frame of at most max bytes.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds limit %d", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// WriteJSON marshals v into one frame.
func WriteJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return WriteFrame(w, b)
}

// ReadRequest reads one request frame. A frame that arrives whole but
// does not decode into a Request — malformed JSON, or a number outside
// float64 range such as a rotation of 1e999 — comes back as a
// CodeBadRequest reply for the caller to send; the stream stays in
// step, so the connection can carry on. err reports framing and I/O
// failures, after which the connection must close.
func ReadRequest(r io.Reader) (req Request, bad *Response, err error) {
	b, err := ReadFrame(r, MaxRequestFrame)
	if err != nil {
		return Request{}, nil, err
	}
	if err := json.Unmarshal(b, &req); err != nil {
		return Request{}, &Response{Code: CodeBadRequest, Error: "malformed request: " + err.Error()}, nil
	}
	return req, nil, nil
}

// ReadJSON reads one frame of at most max bytes and unmarshals it into v.
func ReadJSON(r io.Reader, max int, v any) error {
	b, err := ReadFrame(r, max)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
