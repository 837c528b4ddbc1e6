package server_test

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"sortlast/internal/server"
	"sortlast/internal/trace"
)

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body
}

// httpGetOpenMetrics scrapes url negotiating the OpenMetrics exposition
// (the format exemplars ride on), the way Prometheus itself asks.
func httpGetOpenMetrics(t *testing.T, url string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0,text/plain;version=0.0.4;q=0.5")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "openmetrics") {
		t.Fatalf("OpenMetrics scrape of %s answered Content-Type %q", url, ct)
	}
	return body
}

// TestTraceSidecar covers the serving-tier observability surface: the
// /debug/trace/last endpoint 404s before any frame, serves
// Perfetto-loadable JSON with one track per rank after one, the phase
// histograms on /metrics count the frame, and the pprof index answers.
func TestTraceSidecar(t *testing.T) {
	srv, cl := startServer(t, server.Config{P: 4, HTTPAddr: "127.0.0.1:0"})
	base := "http://" + srv.HTTPAddr().String()

	if code, _ := httpGet(t, base+"/debug/trace/last"); code != http.StatusNotFound {
		t.Fatalf("trace endpoint before any frame: status %d, want 404", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 64, Height: 64, RotY: 30}
	if _, err := cl.Render(ctx, req); err != nil {
		t.Fatal(err)
	}

	code, body := httpGet(t, base+"/debug/trace/last")
	if code != http.StatusOK {
		t.Fatalf("trace endpoint after a frame: status %d", code)
	}
	var f trace.File
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	tids := map[int]bool{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.TID] = true
		}
	}
	if len(tids) != 4 {
		t.Errorf("trace has %d rank tracks, want 4", len(tids))
	}

	_, metrics := httpGet(t, base+"/metrics")
	for _, phase := range []string{"render", "composite", "gather"} {
		want := `renderd_phase_latency_seconds_count{phase="` + phase + `"} 1`
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	if code, _ := httpGet(t, base+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("pprof index: status %d, want 200", code)
	}
}

// TestTracingDisabled pins the opt-out: frames still serve, the trace
// endpoint stays 404, and the phase histograms stay empty.
func TestTracingDisabled(t *testing.T) {
	srv, cl := startServer(t, server.Config{P: 2, HTTPAddr: "127.0.0.1:0", DisableTracing: true})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := cl.Render(ctx, server.Request{Dataset: "cube", Width: 32, Height: 32}); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.HTTPAddr().String()
	if code, _ := httpGet(t, base+"/debug/trace/last"); code != http.StatusNotFound {
		t.Errorf("trace endpoint with tracing disabled: status %d, want 404", code)
	}
	if code, _ := httpGet(t, base+"/debug/flight"); code != http.StatusNotFound {
		t.Errorf("flight endpoint with tracing disabled: status %d, want 404", code)
	}
	_, metrics := httpGet(t, base+"/metrics")
	if !strings.Contains(string(metrics), `renderd_phase_latency_seconds_count{phase="render"} 0`) {
		t.Error("phase histogram counted a frame with tracing disabled")
	}
	// A sampled request against a tracing-disabled server still renders,
	// just without a span tree.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	f, err := cl.Render(ctx2, server.Request{Dataset: "cube", Width: 32, Height: 32, Trace: trace.NewContext()})
	if err != nil {
		t.Fatal(err)
	}
	if f.Trace != nil {
		t.Error("tracing-disabled server returned a span tree")
	}
}

// TestSampledRequestReturnsTrace covers the tentpole's single-server
// leg: a request carrying a sampled trace context gets the server's
// span tree back in the reply — the renderd process with a server-level
// queue/pipeline track plus one track per rank, all under the caller's
// trace ID — and the same request is queryable on /debug/flight.
func TestSampledRequestReturnsTrace(t *testing.T) {
	srv, cl := startServer(t, server.Config{P: 4, HTTPAddr: "127.0.0.1:0"})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	tc := trace.NewContext()
	req := server.Request{Dataset: "cube", Method: "bsbrc", Width: 64, Height: 64, Trace: tc}
	f, err := cl.Render(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.TraceID != tc.TraceID {
		t.Errorf("Stats.TraceID = %q, want %q", f.Stats.TraceID, tc.TraceID)
	}
	w := f.Trace
	if w == nil {
		t.Fatal("sampled request returned no span tree")
	}
	if w.TraceID != tc.TraceID {
		t.Errorf("wire trace ID = %q, want %q", w.TraceID, tc.TraceID)
	}
	if len(w.Procs) != 1 || w.Procs[0].Name != "renderd" {
		t.Fatalf("procs = %+v", w.Procs)
	}
	tracks := map[string][]trace.WireSpan{}
	for _, tr := range w.Procs[0].Tracks {
		tracks[tr.Name] = tr.Spans
	}
	if len(tracks) != 5 { // server + 4 ranks
		t.Fatalf("tracks = %d (%v), want 5", len(tracks), tracks)
	}
	names := map[string]bool{}
	for _, s := range tracks["server"] {
		names[s.Name] = true
	}
	if !names["serve"] || !names["queue"] || !names["pipeline"] {
		t.Errorf("server track spans = %v, want serve+queue+pipeline", names)
	}
	rank := map[string]bool{}
	for _, s := range tracks["rank 0"] {
		rank[s.Name] = true
	}
	for _, want := range []string{trace.SpanRender, trace.SpanCompositing} {
		if !rank[want] {
			t.Errorf("rank 0 track missing %q (has %v)", want, rank)
		}
	}

	// The frame shows up on /debug/flight (first frame: kept by the p99
	// rule on an empty window) and exports as Perfetto JSON.
	base := "http://" + srv.HTTPAddr().String()
	code, body := httpGet(t, base+"/debug/flight")
	if code != http.StatusOK {
		t.Fatalf("flight list: status %d", code)
	}
	var list struct {
		Entries []struct {
			TraceID string `json:"trace_id"`
			Outcome string `json:"outcome"`
			Reason  string `json:"reason"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("flight list JSON: %v", err)
	}
	found := false
	for _, e := range list.Entries {
		if e.TraceID == tc.TraceID {
			found = true
			if e.Outcome != "ok" {
				t.Errorf("flight outcome = %q", e.Outcome)
			}
		}
	}
	if !found {
		t.Fatalf("flight list %+v missing trace %s", list.Entries, tc.TraceID)
	}
	code, body = httpGet(t, base+"/debug/flight?trace="+tc.TraceID)
	if code != http.StatusOK {
		t.Fatalf("flight export: status %d", code)
	}
	var file trace.File
	if err := json.Unmarshal(body, &file); err != nil {
		t.Fatalf("flight export JSON: %v", err)
	}
	if file.TraceID != tc.TraceID || len(file.TraceEvents) == 0 {
		t.Fatalf("flight export = traceId %q, %d events", file.TraceID, len(file.TraceEvents))
	}

	// The latency histogram carries the trace ID as an exemplar — on an
	// OpenMetrics-negotiated scrape only. A classic scrape must stay
	// clean: its parser rejects any line with an exemplar suffix.
	metrics := httpGetOpenMetrics(t, base+"/metrics")
	if !strings.Contains(string(metrics), `trace_id="`+tc.TraceID+`"`) {
		t.Error("OpenMetrics scrape missing the frame's exemplar")
	}
	if !strings.HasSuffix(string(metrics), "# EOF\n") {
		t.Error("OpenMetrics scrape missing # EOF trailer")
	}
	_, classic := httpGet(t, base+"/metrics")
	if strings.Contains(string(classic), "trace_id") {
		t.Error("classic scrape carries exemplars; stock Prometheus would reject it")
	}

	// An unsampled request still gets a locally minted correlation ID
	// but no span tree on the wire.
	f2, err := cl.Render(ctx, server.Request{Dataset: "cube", Width: 32, Height: 32})
	if err != nil {
		t.Fatal(err)
	}
	if f2.Trace != nil {
		t.Error("unsampled request returned a span tree")
	}
	if f2.Stats.TraceID == "" || f2.Stats.TraceID == tc.TraceID {
		t.Errorf("unsampled Stats.TraceID = %q", f2.Stats.TraceID)
	}
}

// TestRenderMSIsSlowestRank pins FrameStats.RenderMS to the critical
// path: a sampled reply's RenderMS is at least every rank's render span
// (each rank's wall brackets its span), not rank 0's alone. engine_low
// at P=4 puts unequal work on the ranks, so some frames' slowest rank
// is not rank 0.
func TestRenderMSIsSlowestRank(t *testing.T) {
	_, cl := startServer(t, server.Config{P: 4})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, roty := range []float64{0, 60, 120, 200, 290} {
		req := server.Request{Dataset: "engine_low", Width: 96, Height: 96, RotY: roty, Trace: trace.NewContext()}
		f, err := cl.Render(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if f.Trace == nil || len(f.Trace.Procs) != 1 {
			t.Fatalf("roty %g: sampled request returned trace %+v", roty, f.Trace)
		}
		ranks := 0
		for _, tr := range f.Trace.Procs[0].Tracks {
			for _, s := range tr.Spans {
				if s.Name != trace.SpanRender {
					continue
				}
				ranks++
				if f.Stats.RenderMS*1000 < s.DurUS {
					t.Errorf("roty %g: RenderMS %.3f ms < %s render span %.3f ms",
						roty, f.Stats.RenderMS, tr.Name, s.DurUS/1000)
				}
			}
		}
		if ranks != 4 {
			t.Fatalf("roty %g: %d render spans, want 4", roty, ranks)
		}
		if f.Stats.RenderMS > f.Stats.TotalMS {
			t.Errorf("roty %g: RenderMS %.3f ms exceeds TotalMS %.3f ms", roty, f.Stats.RenderMS, f.Stats.TotalMS)
		}
	}
}
