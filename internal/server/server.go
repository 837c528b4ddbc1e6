// Package server implements renderd, the persistent frame-serving tier
// of the sort-last system: a resident rank pool (in-process mp world or
// TCP mpnet world) that keeps volumes, transfer functions and the
// per-rank compositing scratch warm across requests and serves frames
// over a length-prefixed TCP protocol.
//
// The serving skeleton is: connection handlers validate and admit
// requests into a bounded queue (admission control — a full queue is a
// typed "overloaded" reply, never unbounded buffering); a scheduler
// dispatches queued jobs into the rank pool, bounded by a MaxInFlight
// token so up to K frames pipeline through the two per-rank stages
// (render, then composite+gather); rank 0's composite stage delivers the
// final image back to the waiting handler. Per-request deadlines cancel
// queued work at dispatch time — once a frame enters the rank pool it
// runs to completion, because cancelling half a binary-swap would
// desynchronize the world. An HTTP sidecar exposes /healthz and
// Prometheus /metrics.
//
// Frames dispatched back to back stay correctly paired without barriers:
// every rank processes frames in the same dispatch order, and the mp
// layer guarantees FIFO delivery per (source, tag) channel — the same
// property consecutive collectives rely on.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"sortlast/internal/autotune"
	"sortlast/internal/faultinject"
	"sortlast/internal/frame"
	"sortlast/internal/harness"
	"sortlast/internal/mp"
	"sortlast/internal/render"
	"sortlast/internal/trace"
)

// Config describes one renderd instance.
type Config struct {
	// Addr is the frame-protocol listen address. Default 127.0.0.1:7171.
	Addr string
	// HTTPAddr is the observability sidecar listen address (/healthz,
	// /metrics). Empty disables the sidecar.
	HTTPAddr string

	// World picks the resident rank pool: "mp" (in-process, default) or
	// "mpnet" (one TCP node per rank; WorldAddrs or loopback ephemeral).
	World      string
	WorldAddrs []string
	// P is the number of resident ranks. Default 4.
	P int

	// QueueDepth bounds the admission queue; a request arriving with the
	// queue full is rejected with CodeOverloaded. Default 64.
	QueueDepth int
	// MaxInFlight bounds how many frames may be in the render→composite
	// pipeline at once. Default 2 (one rendering while one composites).
	MaxInFlight int
	// DefaultDeadline applies to requests that do not set DeadlineMS.
	// Default 30s.
	DefaultDeadline time.Duration
	// Workers bounds each rank's ray-casting worker pool (0: GOMAXPROCS).
	// Rendering is bit-identical for any value.
	Workers int
	// RecvTimeout is the rank pool's receive timeout (0: the mp default).
	RecvTimeout time.Duration
	// FrameTimeout is the per-frame watchdog deadline: a dispatched frame
	// that has not replied within it declares the rank world wedged, which
	// fails every in-flight job with CodeWorldFailed and rebuilds the
	// world. Default 60s.
	FrameTimeout time.Duration

	// DegradeDisabled makes the server ignore Request.DegradeOK: a
	// saturated queue rejects with CodeOverloaded and a slow frame fails
	// the world, exactly as if the caller had not opted in. Operator
	// knob for pinning full fidelity fleet-wide (renderd -no-degrade)
	// without changing clients.
	DegradeDisabled bool

	// Chaos, when set, wraps every rank's transport with fault injection
	// (drops, delays, resets, rank crashes, stalls) for chaos testing;
	// see internal/faultinject. Nil (the default) injects nothing.
	Chaos *faultinject.Injector

	// Profile supplies calibrated cost-model constants for Method "auto"
	// requests (see cmd/calibrate). It must cover the World transport.
	// Nil falls back to the paper's SP2 preset.
	Profile *autotune.Profile

	// DisableTracing turns off the per-frame span recorder. By default
	// every frame records per-rank spans (a few hundred appends per
	// frame), feeding the /debug/trace/last endpoint, the per-phase
	// latency histograms on /metrics, the flight recorder, and the span
	// trees returned to sampled requests.
	DisableTracing bool

	// FlightSize bounds the frame flight recorder: the last N
	// interesting frames (errors, hedged, at-or-over-p99 latency) kept
	// with their full span trees, served at /debug/flight. Zero means
	// trace.DefaultFlightSize; tracing disabled disables it too.
	FlightSize int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7171"
	}
	if c.P == 0 {
		c.P = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	return c
}

// job is one admitted request moving through the pipeline.
type job struct {
	plan     *harness.Plan
	method   string
	admitted time.Time
	deadline time.Time

	// quality is the contract the job was admitted at (what the plan
	// renders); requested is what the caller asked for — they differ
	// when admission degraded the request down the ladder. demote is
	// non-nil for DegradeOK jobs: the frame watchdog flips it to switch
	// the in-flight render to the approx cutoff instead of failing the
	// world (the same flag rides in the plan's render options).
	quality   string
	requested string
	demote    *atomic.Bool

	// id is the distributed trace identity (from the request's trace
	// context, or minted locally so flight entries and exemplars always
	// have a key); sampled means the reply must carry the span tree.
	id      trace.ID
	sampled bool

	// rec is this frame's span recorder (nil when tracing is disabled).
	// Pipelined frames overlap in the rank pool, so the recorder is
	// per-job: each frame's spans land on its own set of rank tracks.
	rec *trace.Recorder

	dispatched time.Time    // set by the scheduler
	renderNS   atomic.Int64 // render wall of the slowest rank
	wireBytes  atomic.Int64 // composite bytes received, all ranks

	once sync.Once
	done chan reply // buffered; exactly one reply per admitted job
}

type reply struct {
	img  *frame.Image
	code string // "" on success
	err  error
}

func (j *job) finish(r reply) { j.once.Do(func() { j.done <- r }) }

// delivered resolves what the job actually produced: the admitted
// contract, demoted to approx when the watchdog tripped mid-render, and
// the matching worst-case error bound. A demoted frame's bound carries
// only the cutoff residual — its encode was never thinned.
func (j *job) delivered() (quality string, bound float64) {
	quality, bound = j.quality, j.plan.ErrorBound()
	if j.demote != nil && j.demote.Load() &&
		harness.QualityRank(quality) > harness.QualityRank(QualityApprox) {
		quality = QualityApprox
		bound = harness.ApproxErrorBound(j.plan.Cfg.P, render.ApproxCutoff, 0)
	}
	return quality, bound
}

// rendered is the handoff between a rank's render and composite stages.
type rendered struct {
	job *job
	img *frame.Image
}

// Server is a running renderd instance.
type Server struct {
	cfg Config
	met *metrics

	// sel is the shared autotune selector serving Method "auto"
	// requests: one per server so EWMA corrections and frame-derived
	// features accumulate across requests and connections.
	sel *autotune.Selector

	queue  chan *job
	tokens chan struct{} // in-flight bound
	stop   chan struct{}

	// cur is the live world incarnation (nil while the supervisor is
	// rebuilding after a failure). The supervisor replaces it; Shutdown
	// takes the final one to drain.
	curMu sync.Mutex
	cur   *worldRun

	// degraded is set while the rank world is down and being rebuilt;
	// /healthz reports 503 until a fresh world is serving again.
	degraded     atomic.Bool
	restarts     atomic.Int64
	lastWorldErr atomic.Pointer[error]

	// renderStats accumulates the ray caster's work counters across all
	// frames and ranks this server has rendered; /metrics exposes them.
	renderStats render.Stats

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	supDone chan struct{}  // supervisor exited
	connWG  sync.WaitGroup // connection handlers + accept loop

	// lastTrace is the most recently completed frame's span recorder,
	// served by /debug/trace/last.
	lastTrace atomic.Pointer[trace.Recorder]

	// flight retains the span trees of the last N interesting frames
	// (tail-sampled), served at /debug/flight. Nil when tracing is
	// disabled.
	flight *trace.Flight

	stopOnce sync.Once
}

// WorldRestarts reports how many times the resident rank world has been
// torn down and rebuilt after a failure.
func (s *Server) WorldRestarts() int64 { return s.restarts.Load() }

// Degraded reports whether the rank world is currently down and being
// rebuilt (requests queue until it returns).
func (s *Server) Degraded() bool { return s.degraded.Load() }

// Stats is a point-in-time snapshot of one server's serving state, for
// layers that embed renderd instances (the fleet gateway's per-replica
// gauges) rather than scraping /metrics over HTTP.
type Stats struct {
	// QueueLen is the number of admitted requests waiting for dispatch.
	QueueLen int
	// Inflight is the number of frames inside the render→composite
	// pipeline.
	Inflight int64
	// WorldRestarts counts rank worlds torn down and rebuilt.
	WorldRestarts int64
	// Degraded reports the rank world is down and being rebuilt.
	Degraded bool
}

// Stats returns a snapshot of the server's serving state.
func (s *Server) Stats() Stats {
	return Stats{
		QueueLen:      len(s.queue),
		Inflight:      s.met.inflight.Load(),
		WorldRestarts: s.restarts.Load(),
		Degraded:      s.degraded.Load(),
	}
}

// Start builds the resident world, spawns the rank pipelines and begins
// serving on cfg.Addr (and cfg.HTTPAddr when set).
func Start(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxInFlight < 1 || cfg.QueueDepth < 1 {
		return nil, fmt.Errorf("server: MaxInFlight and QueueDepth must be positive")
	}
	prof := cfg.Profile
	if prof == nil {
		prof = autotune.DefaultProfile()
	}
	transport := cfg.World
	if transport == "" {
		transport = autotune.TransportMP
	}
	params, err := prof.Params(transport)
	if err != nil {
		return nil, err
	}
	s := &Server{
		sel:     autotune.NewSelector(params, transport),
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueDepth),
		tokens:  make(chan struct{}, cfg.MaxInFlight),
		stop:    make(chan struct{}),
		conns:   make(map[net.Conn]struct{}),
		supDone: make(chan struct{}),
	}
	s.met = newMetrics(func() int { return len(s.queue) })
	s.met.renderStats = s.renderStats.Snapshot
	if !cfg.DisableTracing {
		s.flight = trace.NewFlight(cfg.FlightSize)
		s.met.flightLen = s.flight.Len
	}

	// The first world builds synchronously so configuration errors
	// (unknown world kind, bad address list) fail Start; later failures
	// are the supervisor's to absorb.
	run, err := s.newWorldRun()
	if err != nil {
		return nil, err
	}
	s.setCur(run)
	go s.supervise(run)

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.teardownEarly()
		return nil, err
	}
	s.ln = ln
	if cfg.HTTPAddr != "" {
		httpLn, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			s.teardownEarly()
			return nil, err
		}
		s.httpLn = httpLn
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", s.handleHealthz)
		mux.HandleFunc("/metrics", s.handleMetrics)
		mux.HandleFunc("/debug/trace/last", s.handleTraceLast)
		mux.Handle("/debug/flight", s.flight) // nil-safe: answers 404 when disabled
		mux.HandleFunc("/debug/autotune", s.handleAutotune)
		// Explicit pprof routes: the sidecar uses its own mux, so the
		// net/http/pprof init() registrations on DefaultServeMux don't
		// apply.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		s.httpSrv = &http.Server{Handler: mux}
		go s.httpSrv.Serve(httpLn)
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// teardownEarly unwinds a half-started server (listen failed).
func (s *Server) teardownEarly() {
	close(s.stop)
	<-s.supDone
	if run := s.takeCur(); run != nil {
		run.res.forceStop()
		run.pipeWG.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		run.res.shutdown(ctx)
	}
}

// Addr returns the frame-protocol listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// HTTPAddr returns the sidecar listen address, nil when disabled.
func (s *Server) HTTPAddr() net.Addr {
	if s.httpLn == nil {
		return nil
	}
	return s.httpLn.Addr()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.degraded.Load() {
		msg := "degraded: rank world down, rebuilding"
		if p := s.lastWorldErr.Load(); p != nil {
			msg = fmt.Sprintf("%s: %v", msg, *p)
		}
		http.Error(w, fmt.Sprintf("%s (restarts: %d)", msg, s.restarts.Load()),
			http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if NegotiatesOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", ContentTypeOpenMetrics)
		s.met.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", ContentTypeProm)
	s.met.WriteProm(w)
}

// handleAutotune serves the autotune selector's introspection snapshot:
// the cost-model parameters, the standing feature vector, the latest
// full prediction ranking, the per-method EWMA correction factors and
// selection counts.
func (s *Server) handleAutotune(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.sel.Snapshot())
}

// handleTraceLast serves the most recently completed frame's span trace
// as Chrome/Perfetto trace-event JSON (load in ui.perfetto.dev or
// chrome://tracing).
func (s *Server) handleTraceLast(w http.ResponseWriter, _ *http.Request) {
	rec := s.lastTrace.Load()
	if rec == nil {
		http.Error(w, "no frame traced yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	trace.WritePerfetto(w, rec)
}

// ---- pipeline ----

func (s *Server) failQueued() {
	for {
		select {
		case j := <-s.queue:
			s.met.requestFailed(CodeShutdown)
			j.finish(reply{code: CodeShutdown, err: errors.New("server shutting down")})
		default:
			return
		}
	}
}

func (s *Server) renderLoop(me int, run *worldRun, in <-chan *job, out chan<- rendered) {
	defer run.pipeWG.Done()
	defer close(out)
	for j := range in {
		start := time.Now()
		img := j.plan.RenderRankObserved(me, j.rec.Rank(me), &s.renderStats)
		// Keep the slowest rank's wall. Every rank stores before its
		// first compositing message, and rank 0 replies only after
		// data from every rank reached it, so the reply sees them all.
		storeMax(&j.renderNS, int64(time.Since(start)))
		out <- rendered{job: j, img: img}
	}
}

// storeMax raises a to v unless it already holds at least v.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur; cur = a.Load() {
		if a.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (s *Server) compositeLoop(me int, run *worldRun, c mp.Comm, in <-chan rendered) {
	defer run.pipeWG.Done()
	for rj := range in {
		j := rj.job
		var img *frame.Image
		// The comm is long-lived but jobs come and go, so the tracer is
		// attached per frame; the nil store afterwards keeps a finished
		// job's recorder from collecting a later frame's spans.
		c.SetTracer(j.rec.Rank(me))
		cstart := time.Now()
		res, err := j.plan.CompositeRank(c, rj.img)
		compositeWall := time.Since(cstart)
		if err == nil {
			img, err = j.plan.GatherRank(c, res)
		}
		c.SetTracer(nil)
		// Bytes-on-wire for this frame, from the rank's message log; the
		// log is reset per frame so a long-lived comm does not accumulate
		// entries without bound.
		recv := int64(c.Log().BytesReceived(""))
		c.Log().Reset()
		s.met.wire.Add(recv)
		j.wireBytes.Add(recv)

		if err != nil {
			// Any pipeline error kills this world incarnation: half a
			// binary swap cannot be resumed, so the supervisor tears the
			// world down and rebuilds it. The job is answered with the
			// retryable code; teardown answers the other in-flight jobs.
			run.fail(s, fmt.Errorf("rank %d: %w", me, err))
			if me == 0 && run.untrack(j) {
				<-s.tokens
				s.met.inflight.Add(-1)
				s.met.requestFailed(CodeWorldFailed)
				j.finish(reply{code: CodeWorldFailed, err: fmt.Errorf("rank world failed: %w", err)})
			}
			return
		}
		if me == 0 && run.untrack(j) {
			<-s.tokens
			s.met.inflight.Add(-1)
			if j.rec != nil {
				s.met.phaseDone("render", j.rec.MaxTotal(trace.SpanRender), uint64(j.id))
				s.met.phaseDone("composite", j.rec.MaxTotal(trace.SpanCompositing), uint64(j.id))
				s.met.phaseDone("gather", j.rec.MaxTotal(trace.SpanGather), uint64(j.id))
				s.lastTrace.Store(j.rec)
			}
			j.finish(reply{img: img})
			if j.plan.Choice != nil {
				// Feedback after the reply is on its way, so it never
				// adds to request latency: the measured composite wall
				// (slowest rank when traced, rank 0 otherwise — binary
				// swap synchronizes, so rank 0's wall includes waits)
				// corrects the chosen method's EWMA factor, and the
				// gathered frame's exact sparsity becomes the feature
				// vector the next "auto" request predicts from.
				measured := compositeWall
				if j.rec != nil {
					measured = j.rec.MaxTotal(trace.SpanCompositing)
				}
				j.plan.Selector.Observe(j.plan.Choice.Method, j.plan.Choice.Features, measured)
				j.plan.Selector.Seed(autotune.ScanFeatures(img, j.plan.Cfg.P))
			}
		}
	}
}

// ---- admission and connections ----

// submit validates, admits and waits for one request; it always returns
// a response (the typed-error path never hangs the caller). A degraded
// server (rank world down, rebuilding) still admits: the job waits in
// the queue until the supervisor brings a fresh world up, bounded by the
// queue depth and the request deadline.
func (s *Server) submit(req Request) (*Response, *frame.Image) {
	if err := ValidateMethod(req.Method); err != nil {
		s.met.requestFailed(CodeBadRequest)
		return &Response{Code: CodeBadRequest, Error: err.Error()}, nil
	}
	requested, err := NormalizeQuality(req.Quality)
	if err != nil {
		s.met.requestFailed(CodeBadRequest)
		return &Response{Code: CodeBadRequest, Error: err.Error()}, nil
	}
	if s.cfg.DegradeDisabled {
		// req is a copy, so clearing the flag here blinds every
		// downstream consumer (watchdog demotion in buildJob, the
		// admission ladder below) in one place.
		req.DegradeOK = false
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	deadlineAt := time.Now().Add(deadline)

	j, resp := s.buildJob(req, requested, requested, deadlineAt)
	if resp != nil {
		return resp, nil
	}

	// The closed check and the enqueue are one critical section: Shutdown
	// sets closed under the same lock before the scheduler drains the
	// queue, so a job admitted here is guaranteed to be seen (and thus
	// answered) by the scheduler — no request can fall between admission
	// and drain and hang its handler.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.met.requestFailed(CodeShutdown)
		s.observeFlight(j, CodeShutdown, jobDetail(j, req))
		return &Response{Code: CodeShutdown, Error: "server shutting down"}, nil
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		if !req.DegradeOK {
			// Admission control: reject now rather than queue unboundedly.
			s.met.requestFailed(CodeOverloaded)
			s.observeFlight(j, CodeOverloaded, jobDetail(j, req))
			return &Response{Code: CodeOverloaded,
				Error: fmt.Sprintf("admission queue full (%d deep)", cap(s.queue))}, nil
		}
		// The request opted into degraded delivery: walk the quality
		// ladder down instead of bouncing.
		if j, resp = s.admitDegraded(req, requested, deadlineAt); resp != nil {
			return resp, nil
		}
	}

	rep := <-j.done
	total := time.Since(j.admitted)
	detail := jobDetail(j, req)
	if rep.code != "" {
		s.observeFlight(j, rep.code, detail)
		return &Response{
			Code: rep.code, Error: rep.err.Error(),
			Stats: FrameStats{TraceID: j.id.String(), TotalMS: float64(total) / 1e6},
		}, nil
	}
	delivered, bound := j.delivered()
	degraded := harness.QualityRank(delivered) < harness.QualityRank(j.requested)
	s.met.frameDone(j.method, total, uint64(j.id))
	s.met.qualityDelivered(delivered)
	s.observeFlight(j, "ok", detail)
	resp = &Response{
		OK: true,
		// The plan's geometry, not the request's: a preview delivery
		// carries its reduced dimensions, and the payload that follows
		// holds exactly Width*Height bytes either way.
		Width: j.plan.Cfg.Width, Height: j.plan.Cfg.Height,
		Stats: FrameStats{
			QueueMS:    float64(j.dispatched.Sub(j.admitted)) / 1e6,
			RenderMS:   float64(j.renderNS.Load()) / 1e6,
			TotalMS:    float64(total) / 1e6,
			WireBytes:  j.wireBytes.Load(),
			Quality:    delivered,
			Degraded:   degraded,
			ErrorBound: bound,
			TraceID:    j.id.String(),
		},
	}
	if j.sampled {
		resp.Trace = s.frameWire(j, total)
	}
	return resp, rep.img
}

// buildJob resolves one request at one quality contract into a
// ready-to-enqueue job. Preview contracts render at harness.PreviewDims
// — a quarter of the rays — and carry the reduced geometry in the
// reply; DegradeOK jobs get the demote flag the frame watchdog flips.
// The returned *Response is the typed-error reply (nil on success).
func (s *Server) buildJob(req Request, quality, requested string, deadlineAt time.Time) (*job, *Response) {
	w, h := req.Width, req.Height
	if quality == QualityPreview {
		w, h = harness.PreviewDims(w, h)
	}
	cfg := harness.Config{
		Dataset: req.Dataset,
		Width:   w, Height: h,
		P:      s.cfg.P,
		Method: req.Method,
		RotX:   req.RotX, RotY: req.RotY,
		Quality:    quality,
		RenderOpts: render.Options{Shaded: req.Shaded, Workers: s.cfg.Workers},
	}
	if cfg.Method == "" {
		cfg.Method = DefaultMethod
	}
	if autotune.IsAuto(cfg.Method) {
		// The server-wide selector resolves "auto" at plan time (inside
		// NewPlan), so all ranks of this frame run the same compositor
		// and corrections accumulate across requests.
		cfg.Selector = s.sel
	}
	var demote *atomic.Bool
	if req.DegradeOK {
		demote = new(atomic.Bool)
		cfg.RenderOpts.Demote = demote
	}
	if err := cfg.Check(); err != nil {
		s.met.requestFailed(CodeBadRequest)
		return nil, &Response{Code: CodeBadRequest, Error: err.Error()}
	}
	plan, err := harness.NewPlan(cfg)
	if err != nil {
		s.met.requestFailed(CodeBadRequest)
		return nil, &Response{Code: CodeBadRequest, Error: err.Error()}
	}
	if plan.Choice != nil {
		// Method "auto": cfg still says "auto" but the plan resolved it;
		// count what the selector picked.
		s.met.methodSelected(plan.Cfg.Method)
	}
	// Trace identity: adopt the caller's context, or mint a local ID so
	// flight entries and exemplars stay correlatable even for untraced
	// requests. Sampling (returning the span tree in the reply) is only
	// ever caller-requested.
	id := req.Trace.Trace()
	sampled := req.Trace != nil && req.Trace.Sampled && !s.cfg.DisableTracing
	if id == 0 && !s.cfg.DisableTracing {
		id = trace.NewID()
	}
	j := &job{
		plan:      plan,
		method:    plan.Cfg.Method,
		quality:   quality,
		requested: requested,
		demote:    demote,
		admitted:  time.Now(),
		deadline:  deadlineAt,
		id:        id,
		sampled:   sampled,
		done:      make(chan reply, 1),
	}
	if !s.cfg.DisableTracing {
		j.rec = trace.NewRecorder(s.cfg.P)
		j.rec.SetTraceID(id)
	}
	return j, nil
}

func jobDetail(j *job, req Request) string {
	d := fmt.Sprintf("%s %dx%d %s", j.method, j.plan.Cfg.Width, j.plan.Cfg.Height, req.Dataset)
	if j.quality != QualityFull {
		d += " " + j.quality
	}
	return d
}

// degradePoll paces the degraded-admission retry loop: long enough for
// the dispatcher to drain a queue slot between attempts, negligible next
// to any real frame time.
const degradePoll = 2 * time.Millisecond

// admitDegraded admits a DegradeOK request that found the queue full.
// Each attempt steps the contract one rung down the full→approx→preview
// ladder (rebuilding the job cheaper) and retries the non-blocking
// enqueue; at the preview floor it keeps polling. The only exits are a
// queue slot (success — the caller waits on the returned job), the
// request deadline, shutdown, or a build error; never CodeOverloaded.
// Every enqueue stays inside the closed-check critical section,
// preserving the shutdown-drain invariant of the fast path.
func (s *Server) admitDegraded(req Request, requested string, deadlineAt time.Time) (*job, *Response) {
	quality := requested
	var j *job
	for {
		if next, ok := harness.DegradeQuality(quality); ok {
			quality = next
			s.met.degraded("admission", quality, 1)
			j = nil // rebuild at the cheaper contract
		}
		if j == nil {
			var resp *Response
			if j, resp = s.buildJob(req, quality, requested, deadlineAt); resp != nil {
				return nil, resp
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			s.met.requestFailed(CodeShutdown)
			s.observeFlight(j, CodeShutdown, jobDetail(j, req))
			return nil, &Response{Code: CodeShutdown, Error: "server shutting down"}
		}
		select {
		case s.queue <- j:
			s.mu.Unlock()
			return j, nil
		default:
			s.mu.Unlock()
		}
		select {
		case <-s.stop:
			s.met.requestFailed(CodeShutdown)
			s.observeFlight(j, CodeShutdown, jobDetail(j, req))
			return nil, &Response{Code: CodeShutdown, Error: "server shutting down"}
		case <-time.After(degradePoll):
			if time.Now().After(j.deadline) {
				s.met.requestFailed(CodeDeadline)
				s.observeFlight(j, CodeDeadline, jobDetail(j, req))
				return nil, &Response{Code: CodeDeadline,
					Error: "deadline expired before a degraded slot freed",
					Stats: FrameStats{TraceID: j.id.String()}}
			}
		}
	}
}

// frameWire assembles the server's span tree for one finished job: a
// process-level track splitting the request into queue wait and
// pipeline time (derived from the admission timestamps, so it exists
// even for frames that failed before recording anything), plus the
// per-rank recorder tracks.
func (s *Server) frameWire(j *job, total time.Duration) *trace.Wire {
	procTrack := []trace.Span{{Name: "serve", Dur: total}}
	if !j.dispatched.IsZero() {
		queue := j.dispatched.Sub(j.admitted)
		if queue < 0 {
			queue = 0
		}
		if queue > total {
			queue = total
		}
		procTrack = append(procTrack,
			trace.Span{Name: "queue", Dur: queue},
			trace.Span{Name: "pipeline", Start: queue, Dur: total - queue})
	}
	return trace.BuildWire(j.id, "renderd", total, procTrack, j.rec)
}

// observeFlight offers one finished request to the flight recorder; the
// span tree is built lazily at export time so retaining an entry costs
// a closure, not a wire build.
func (s *Server) observeFlight(j *job, outcome, detail string) {
	if s.flight == nil {
		return
	}
	total := time.Since(j.admitted)
	s.flight.Observe(trace.FlightEntry{
		TraceID: j.id.String(),
		At:      time.Now(),
		Latency: total,
		Outcome: outcome,
		Detail:  detail,
		Trace:   func() *trace.Wire { return s.frameWire(j, total) },
	})
}

func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	for {
		req, resp, err := ReadRequest(conn)
		if err != nil {
			return // EOF, deadline from Shutdown, or garbage framing
		}
		var img *frame.Image
		if resp != nil {
			s.met.requestFailed(CodeBadRequest)
		} else {
			resp, img = s.submit(req)
		}
		if err := WriteJSON(conn, resp); err != nil {
			return
		}
		if resp.OK {
			if err := WriteFrame(conn, img.AppendGray(nil)); err != nil {
				return
			}
		}
	}
}

// Shutdown stops the server: admission is closed, queued jobs are
// answered with CodeShutdown, in-flight frames finish and are delivered,
// then the resident world quiesces and every listener and connection is
// closed. If ctx expires first, blocked ranks are force-stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.stopOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.ln.Close()
		close(s.stop)
	})

	// The supervisor drains the queue and closes the rank pipelines (or,
	// if the world was mid-rebuild, exits without one).
	<-s.supDone

	// Wait for in-flight frames; on timeout, cancel through the world so
	// blocked receives fail instead of waiting out their timeout. run is
	// nil when the server stopped while the world was down.
	run := s.takeCur()
	var err error
	if run != nil {
		pipeDone := make(chan struct{})
		go func() { run.pipeWG.Wait(); close(pipeDone) }()
		select {
		case <-pipeDone:
		case <-ctx.Done():
			err = ctx.Err()
			run.res.forceStop()
			<-pipeDone
		}
		// Frames cancelled mid-flight by the forced stop were untracked
		// by their composite loop's error path; any job still tracked
		// (e.g. never picked up) is answered here so no handler hangs.
		for _, j := range run.takeInflight() {
			<-s.tokens
			s.met.inflight.Add(-1)
			s.met.requestFailed(CodeShutdown)
			j.finish(reply{code: CodeShutdown, err: errors.New("server shutting down")})
		}
	}

	// Unblock idle connection readers, then wait for handlers to finish
	// writing their last reply; force-close stragglers at the deadline.
	s.mu.Lock()
	for conn := range s.conns {
		conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	connDone := make(chan struct{})
	go func() { s.connWG.Wait(); close(connDone) }()
	select {
	case <-connDone:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-connDone
	}

	if run != nil {
		if werr := run.res.shutdown(ctx); werr != nil && err == nil {
			err = werr
		}
	}
	if s.httpSrv != nil {
		if herr := s.httpSrv.Shutdown(ctx); herr != nil && err == nil {
			err = herr
		}
	}
	return err
}
