// Package fleet is the horizontal-capacity tier above renderd: a
// gateway that owns N world replicas (each a supervised internal/server
// world with its own P, transport and autotune configuration, or an
// externally running renderd it attaches to) and speaks the same
// length-prefixed frame protocol to clients, so internal/client works
// unchanged against a gateway.
//
// Three mechanisms turn one-world serving into a fleet:
//
//   - Routing: requests go to the replica with the least outstanding
//     work, biased by a decaying camera-affinity bonus (repeat cameras
//     stay on the replica whose caches are warm for them) and away from
//     replicas that recently failed or whose world is rebuilding. A
//     dispatch that fails with a retryable error is retried on the next
//     replica, so one crashing replica drains to the survivors without
//     failing client requests.
//
//   - Hedged dispatch: a request that outlives its replica's rolling
//     p99 latency is speculatively re-sent to a second replica; the
//     first reply wins. This bounds tail latency against a slow or
//     silently wedged replica at the cost of one duplicate render.
//
//   - Frame cache: successful frames are cached under their quantized
//     camera key (LRU, byte budget), so dashboard-style repeat traffic
//     is served from memory without touching a world. Entries are
//     invalidated per (dataset, method) when a dataset changes.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/server"
	"sortlast/internal/trace"
)

// Config describes one gateway.
type Config struct {
	// Addr is the gateway's frame-protocol listen address. Default
	// 127.0.0.1:7261.
	Addr string
	// HTTPAddr is the observability sidecar address (/healthz, /metrics,
	// /cache/invalidate). Empty disables the sidecar.
	HTTPAddr string

	// Replicas is the replica set; at least one is required.
	Replicas []ReplicaConfig

	// CacheBytes is the frame cache's byte budget. Zero means 64 MiB;
	// negative disables the cache.
	CacheBytes int64
	// QuantDeg is the camera quantization step in degrees for cache and
	// affinity keys. Zero means DefaultQuantDeg.
	QuantDeg float64

	// HedgeMin floors the hedge delay so a replica with a very fast
	// rolling p99 is not hedged on scheduling noise. Zero means 10ms.
	HedgeMin time.Duration
	// HedgeDisabled turns hedged dispatch off.
	HedgeDisabled bool

	// AffinityHalfLife is the camera-affinity decay half-life. Zero
	// means 5s.
	AffinityHalfLife time.Duration
	// SuspectCooldown is how long a replica is deprioritized after a
	// failed dispatch. Zero means 1s.
	SuspectCooldown time.Duration

	// DefaultDeadline bounds requests that carry no DeadlineMS. Zero
	// means 30s.
	DefaultDeadline time.Duration
	// PoolConns sizes each replica's client connection pool. Zero means
	// 64.
	PoolConns int

	// TracingDisabled turns off the gateway's request tracing: no trace
	// contexts are propagated to replicas, no merged span trees are
	// returned to sampled callers, and the flight recorder is off.
	TracingDisabled bool
	// FlightSize bounds the gateway's frame flight recorder (last N
	// interesting requests with their merged span trees, served at
	// /debug/flight). Zero means trace.DefaultFlightSize.
	FlightSize int
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7261"
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.QuantDeg == 0 {
		c.QuantDeg = DefaultQuantDeg
	}
	if c.HedgeMin == 0 {
		c.HedgeMin = 10 * time.Millisecond
	}
	if c.AffinityHalfLife == 0 {
		c.AffinityHalfLife = 5 * time.Second
	}
	if c.SuspectCooldown == 0 {
		c.SuspectCooldown = time.Second
	}
	if c.DefaultDeadline == 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.PoolConns == 0 {
		c.PoolConns = 64
	}
	return c
}

// hedgeColdDelay is the hedge threshold while a replica has too few
// latency samples for a meaningful p99.
const hedgeColdDelay = 500 * time.Millisecond

// hedgeMinSamples is how many window samples a replica needs before its
// rolling p99 replaces the cold default.
const hedgeMinSamples = 16

// Gateway is a running fleet gateway.
type Gateway struct {
	cfg      Config
	replicas []*replica
	router   *router
	met      *metrics

	cacheMu sync.Mutex
	cache   *frameCache // nil when disabled

	// flight retains the merged span trees of the last N interesting
	// requests (errors, hedges, over-p99), served at /debug/flight. Nil
	// when tracing is disabled.
	flight *trace.Flight

	ln      net.Listener
	httpLn  net.Listener
	httpSrv *http.Server

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	connWG   sync.WaitGroup // accept loop + connection handlers
	sendWG   sync.WaitGroup // in-flight replica dispatches (incl. hedge losers)
	stopOnce sync.Once
}

// Start builds the replica set (concurrently — replicas are
// independent), then begins serving the frame protocol on cfg.Addr and
// the observability sidecar on cfg.HTTPAddr.
func Start(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas configured")
	}
	replicas, err := startReplicas(cfg.Replicas, cfg.PoolConns)
	if err != nil {
		return nil, err
	}
	g := &Gateway{
		cfg:      cfg,
		replicas: replicas,
		router:   newRouter(cfg.AffinityHalfLife),
		met:      newFleetMetrics(),
		conns:    make(map[net.Conn]struct{}),
	}
	if cfg.CacheBytes > 0 {
		g.cache = newFrameCache(cfg.CacheBytes)
	}
	if !cfg.TracingDisabled {
		g.flight = trace.NewFlight(cfg.FlightSize)
		g.met.flightLen = g.flight.Len
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		g.stopReplicas(context.Background())
		return nil, err
	}
	g.ln = ln
	if cfg.HTTPAddr != "" {
		httpLn, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			ln.Close()
			g.stopReplicas(context.Background())
			return nil, err
		}
		g.httpLn = httpLn
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", g.handleHealthz)
		mux.HandleFunc("/metrics", g.handleMetrics)
		mux.HandleFunc("/cache/invalidate", g.handleInvalidate)
		mux.Handle("/debug/flight", g.flight) // nil-safe: answers 404 when disabled
		// Explicit pprof routes, matching renderd's sidecar: the gateway
		// uses its own mux, so the net/http/pprof init() registrations on
		// DefaultServeMux don't apply.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		g.httpSrv = &http.Server{Handler: mux}
		go g.httpSrv.Serve(httpLn)
	}
	g.connWG.Add(1)
	go g.acceptLoop()
	return g, nil
}

// Addr returns the gateway's frame-protocol listen address.
func (g *Gateway) Addr() net.Addr { return g.ln.Addr() }

// HTTPAddr returns the sidecar listen address, nil when disabled.
func (g *Gateway) HTTPAddr() net.Addr {
	if g.httpLn == nil {
		return nil
	}
	return g.httpLn.Addr()
}

// InvalidateDataset drops every cached frame of dataset; a non-empty
// method restricts the sweep to that method's entries. It returns the
// number of entries removed. Call it whenever a dataset's contents
// change, or stale frames will be served until eviction.
func (g *Gateway) InvalidateDataset(dataset, method string) int {
	if g.cache == nil {
		return 0
	}
	g.cacheMu.Lock()
	defer g.cacheMu.Unlock()
	return g.cache.invalidate(dataset, method)
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	now := time.Now()
	healthy := 0
	for _, r := range g.replicas {
		if !r.isSuspect(now) && !r.degraded() {
			healthy++
		}
	}
	if healthy == 0 {
		http.Error(w, fmt.Sprintf("degraded: 0/%d replicas healthy", len(g.replicas)),
			http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, "ok (%d/%d replicas healthy)\n", healthy, len(g.replicas))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if server.NegotiatesOpenMetrics(r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", server.ContentTypeOpenMetrics)
		g.writeProm(w, true)
		return
	}
	w.Header().Set("Content-Type", server.ContentTypeProm)
	g.writeProm(w, false)
}

func (g *Gateway) handleInvalidate(w http.ResponseWriter, r *http.Request) {
	dataset := r.URL.Query().Get("dataset")
	if dataset == "" {
		http.Error(w, "missing dataset parameter", http.StatusBadRequest)
		return
	}
	n := g.InvalidateDataset(dataset, r.URL.Query().Get("method"))
	fmt.Fprintf(w, "invalidated %d entries\n", n)
}

// ---- serving ----

func (g *Gateway) acceptLoop() {
	defer g.connWG.Done()
	for {
		conn, err := g.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			conn.Close()
			return
		}
		g.conns[conn] = struct{}{}
		g.connWG.Add(1)
		g.mu.Unlock()
		go g.handleConn(conn)
	}
}

func (g *Gateway) handleConn(conn net.Conn) {
	defer g.connWG.Done()
	defer func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		conn.Close()
	}()
	for {
		req, resp, err := server.ReadRequest(conn)
		if err != nil {
			return // EOF, deadline from Shutdown, or garbage framing
		}
		var gray []byte
		if resp == nil {
			resp, gray = g.serve(req)
		}
		if err := server.WriteJSON(conn, resp); err != nil {
			return
		}
		if resp.OK {
			if err := server.WriteFrame(conn, gray); err != nil {
				return
			}
		}
	}
}

// serve answers one request: from the frame cache when the quantized
// camera hits, otherwise by dispatching to a replica (with hedging and
// cross-replica retry) and caching the result.
func (g *Gateway) serve(req server.Request) (*server.Response, []byte) {
	g.met.requests.Add(1)
	t0 := time.Now()
	key := quantKey(req, g.cfg.QuantDeg)
	rt := g.newReqTrace(req.Trace, t0)
	detail := reqDetail(req)

	// gen is the cache's invalidation generation as of this lookup; an
	// invalidation between here and the post-render put makes the put a
	// no-op instead of resurrecting bytes from the old dataset.
	var gen uint64
	if g.cache != nil {
		g.cacheMu.Lock()
		e, ok := g.cache.lookup(key)
		gen = g.cache.generation()
		g.cacheMu.Unlock()
		if ok {
			total := time.Since(t0)
			g.met.cacheHits.Add(1)
			g.met.latency.observeTraced(total.Seconds(), uint64(rt.traceID()))
			rt.finish(total)
			g.observeFlight(rt, "ok", detail, total, false, true)
			resp := &server.Response{
				OK: true, Width: e.width, Height: e.height,
				Stats: server.FrameStats{Cached: true, TotalMS: float64(total) / 1e6,
					Quality: e.quality, ErrorBound: e.errorBound,
					TraceID: rt.traceID().String()},
			}
			if rt.wantsReply() {
				resp.Trace = rt.wire()
			}
			return resp, e.gray
		}
		g.met.cacheMiss.Add(1)
		rt.cacheLookup(time.Since(t0))
	}

	deadline := g.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()

	f, idx, hedged, err := g.dispatch(ctx, req, key, rt)
	total := time.Since(t0)
	rt.finish(total)
	if err != nil {
		g.met.errored.Add(1)
		resp := errorResponse(err)
		resp.Stats.TraceID = rt.traceID().String()
		g.observeFlight(rt, failCode(resp.Code), detail, total, hedged, false)
		return resp, nil
	}
	g.router.remember(key, idx, time.Now())
	if g.cache != nil {
		// The entry is keyed by the quality actually delivered (a
		// DegradeOK request may come back below what it asked for), so a
		// later full-quality request can never be answered with these
		// bytes unless they really are full quality.
		ckey := key
		if q, err := server.NormalizeQuality(f.Stats.Quality); err == nil {
			ckey.quality = q
		}
		e := &cacheEntry{key: ckey, width: f.Width, height: f.Height, gray: f.Gray,
			quality: ckey.quality, errorBound: f.Stats.ErrorBound}
		g.cacheMu.Lock()
		evicted := g.cache.put(e, gen)
		g.cacheMu.Unlock()
		g.met.cacheEvict.Add(int64(evicted))
	}
	g.met.latency.observeTraced(total.Seconds(), uint64(rt.traceID()))
	g.observeFlight(rt, "ok", detail, total, hedged, false)
	resp := &server.Response{OK: true, Width: f.Width, Height: f.Height, Stats: f.Stats}
	resp.Stats.Replica = idx + 1
	resp.Stats.Hedged = hedged
	resp.Stats.TotalMS = float64(total) / 1e6
	resp.Stats.TraceID = rt.traceID().String()
	if rt.wantsReply() {
		resp.Trace = rt.wire()
	}
	return resp, f.Gray
}

// reqDetail is the flight-recorder label for one request.
func reqDetail(req server.Request) string {
	method := req.Method
	if method == "" {
		method = server.DefaultMethod
	}
	return fmt.Sprintf("%s %dx%d %s", method, req.Width, req.Height, req.Dataset)
}

// failCode normalizes an empty reply code for flight-entry outcomes.
func failCode(code string) string {
	if code == "" {
		return server.CodeInternal
	}
	return code
}

// observeFlight offers one finished request to the gateway's flight
// recorder. The span tree is built lazily at export time, so a hedge
// loser reaped after this call still shows up in the retained trace.
func (g *Gateway) observeFlight(rt *reqTrace, outcome, detail string, total time.Duration, hedged, cached bool) {
	if g.flight == nil || rt == nil {
		return
	}
	g.flight.Observe(trace.FlightEntry{
		TraceID: rt.traceID().String(),
		At:      time.Now(),
		Latency: total,
		Outcome: outcome,
		Hedged:  hedged,
		Cached:  cached,
		Detail:  detail,
		Trace:   rt.wire,
	})
}

// errorResponse maps a dispatch error onto the wire's typed reply. A
// typed replica reply passes through unchanged; everything else becomes
// deadline_exceeded or internal.
func errorResponse(err error) *server.Response {
	var typed *client.Error
	if errors.As(err, &typed) {
		return &server.Response{Code: typed.Code, Error: typed.Msg}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return &server.Response{Code: CodeDeadline, Error: "request deadline expired at the gateway"}
	}
	return &server.Response{Code: server.CodeInternal, Error: err.Error()}
}

// CodeDeadline mirrors server.CodeDeadline; aliased here so callers of
// the fleet package need not import server for the constant.
const CodeDeadline = server.CodeDeadline

// result is one replica dispatch's outcome.
type result struct {
	f   *client.Frame
	err error
	idx int
}

// dispatch sends req to the best replica, hedging to a second one when
// the reply outlives the primary's rolling p99 and retrying on the next
// replica after a retryable failure. Each replica is tried at most once
// per request. It returns the winning frame and replica index, and
// whether a hedge was issued.
func (g *Gateway) dispatch(ctx context.Context, req server.Request, key cacheKey, rt *reqTrace) (*client.Frame, int, bool, error) {
	tried := make(map[int]bool, len(g.replicas))
	hedgeIdx := map[int]bool{}
	resCh := make(chan result, len(g.replicas))

	primary := g.pick(key, tried)
	if primary < 0 {
		return nil, 0, false, fmt.Errorf("fleet: no replicas available")
	}
	g.send(ctx, primary, req, resCh, rt, "primary")
	tried[primary] = true
	outstanding := 1
	hedged := false

	hedgeTimer := time.NewTimer(g.hedgeDelay(primary))
	defer hedgeTimer.Stop()

	var lastErr error
	for {
		select {
		case r := <-resCh:
			outstanding--
			if r.err == nil {
				if hedgeIdx[r.idx] {
					g.met.hedgeWins.Add(1)
					g.replicas[r.idx].hedgesWon.Add(1)
				}
				return r.f, r.idx, hedged, nil
			}
			lastErr = r.err
			if !dispatchRetryable(r.err) {
				// Permanent for this request (bad request, expired
				// deadline): another replica would answer identically.
				return nil, r.idx, hedged, r.err
			}
			g.replicas[r.idx].suspect(time.Now(), g.cfg.SuspectCooldown)
			if next := g.pick(key, tried); next >= 0 {
				g.met.retries.Add(1)
				g.send(ctx, next, req, resCh, rt, "retry")
				tried[next] = true
				outstanding++
			} else if outstanding == 0 {
				return nil, r.idx, hedged, lastErr
			}
		case <-hedgeTimer.C:
			if g.cfg.HedgeDisabled || hedged {
				continue
			}
			if next := g.pick(key, tried); next >= 0 {
				hedged = true
				hedgeIdx[next] = true
				g.met.hedges.Add(1)
				g.send(ctx, next, req, resCh, rt, "hedge")
				tried[next] = true
				outstanding++
			}
		case <-ctx.Done():
			return nil, 0, hedged, ctx.Err()
		}
	}
}

// send dispatches req to replica idx in its own goroutine. The replica
// does its own bookkeeping (outstanding, latency window, counters), so
// a hedge loser finishing after the winner returned still lands its
// numbers — and its trace attempt, which the flight recorder's lazy
// export picks up even after the winner's reply went out.
func (g *Gateway) send(ctx context.Context, idx int, req server.Request, ch chan<- result, rt *reqTrace, kind string) {
	r := g.replicas[idx]
	r.outstanding.Add(1)
	g.sendWG.Add(1)
	// req is a copy: the attempt-specific trace context never leaks into
	// a sibling dispatch.
	req.Trace = rt.childContext()
	a := rt.beginAttempt(idx, kind)
	go func() {
		defer g.sendWG.Done()
		defer r.outstanding.Add(-1)
		t0 := time.Now()
		f, err := r.cl.Render(ctx, req)
		if err == nil {
			rt.endAttempt(a, f.Trace, "")
			r.win.observe(time.Since(t0))
			r.frames.Add(1)
		} else {
			rt.endAttempt(a, nil, errCode(err))
			r.errs.Add(1)
		}
		ch <- result{f: f, err: err, idx: idx}
	}()
}

// errCode names a dispatch error for the attempt span's outcome label.
func errCode(err error) string {
	var typed *client.Error
	if errors.As(err, &typed) {
		return typed.Code
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return "cancelled"
	}
	return "transport_error"
}

// pick scores the replicas not yet tried for this request and returns
// the best, or -1 when all are exhausted.
func (g *Gateway) pick(key cacheKey, tried map[int]bool) int {
	now := time.Now()
	cands := make([]pickCandidate, len(g.replicas))
	for i, r := range g.replicas {
		cands[i].Outstanding = int(r.outstanding.Load())
		cands[i].Excluded = tried[i]
		if r.isSuspect(now) {
			cands[i].Penalty += suspectPenalty
		}
		if r.degraded() {
			cands[i].Penalty += degradedPenalty
		}
	}
	affIdx, w := g.router.affinity(key, now)
	return pickReplica(cands, affIdx, w)
}

// hedgeDelay is how long a dispatch to replica idx may run before a
// hedge fires: the replica's rolling p99, floored by HedgeMin, or a
// conservative cold default while the window is thin.
func (g *Gateway) hedgeDelay(idx int) time.Duration {
	p99, n := g.replicas[idx].win.p99()
	if n < hedgeMinSamples {
		return hedgeColdDelay
	}
	if p99 < g.cfg.HedgeMin {
		return g.cfg.HedgeMin
	}
	return p99
}

// dispatchRetryable reports whether a failed dispatch is worth retrying
// on another replica: backpressure, a failed or draining world, and
// transport errors (dial refused, torn connection) all are — a
// different replica is an independent failure domain. Validation
// failures and expired deadlines are not.
func dispatchRetryable(err error) bool {
	if errors.Is(err, client.ErrBadRequest) || errors.Is(err, client.ErrDeadline) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// ---- teardown ----

func (g *Gateway) stopReplicas(ctx context.Context) error {
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, r := range g.replicas {
		if r == nil || r.srv == nil {
			continue
		}
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			if err := r.srv.Shutdown(ctx); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("fleet: replica %d shutdown: %w", r.idx, err)
				}
				mu.Unlock()
			}
		}(r)
	}
	wg.Wait()
	for _, r := range g.replicas {
		if r != nil {
			r.stop()
		}
	}
	return firstErr
}

// Shutdown stops the gateway: the listener closes, connection handlers
// finish their current reply, in-flight dispatches (hedge losers
// included) complete, then the in-process replicas drain. ctx bounds
// the whole sequence.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.stopOnce.Do(func() {
		g.mu.Lock()
		g.closed = true
		g.mu.Unlock()
		g.ln.Close()
	})

	// Unblock idle connection readers, then wait for handlers; force-close
	// stragglers at the deadline.
	g.mu.Lock()
	for conn := range g.conns {
		conn.SetReadDeadline(time.Now())
	}
	g.mu.Unlock()
	var err error
	connDone := make(chan struct{})
	go func() { g.connWG.Wait(); close(connDone) }()
	select {
	case <-connDone:
	case <-ctx.Done():
		err = ctx.Err()
		g.mu.Lock()
		for conn := range g.conns {
			conn.Close()
		}
		g.mu.Unlock()
		<-connDone
	}

	// Hedge losers may still be in flight; their contexts carry request
	// deadlines, so this wait is bounded even if ctx is not.
	sendDone := make(chan struct{})
	go func() { g.sendWG.Wait(); close(sendDone) }()
	select {
	case <-sendDone:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}

	if serr := g.stopReplicas(ctx); serr != nil && err == nil {
		err = serr
	}
	if g.httpSrv != nil {
		if herr := g.httpSrv.Shutdown(ctx); herr != nil && err == nil {
			err = herr
		}
	}
	return err
}
