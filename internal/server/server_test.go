package server_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"sortlast/internal/client"
	"sortlast/internal/faultinject"
	"sortlast/internal/server"
)

func startServer(t *testing.T, cfg server.Config) (*server.Server, *client.Client) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv, err := server.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(srv.Addr().String())
	t.Cleanup(func() {
		cl.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, cl
}

func TestBadRequestsAreTyped(t *testing.T) {
	_, cl := startServer(t, server.Config{P: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cases := []server.Request{
		{Dataset: "nope", Method: "bsbrc", Width: 32, Height: 32},
		{Dataset: "cube", Method: "nope", Width: 32, Height: 32},
		{Dataset: "cube", Method: "bsbrc", Width: 0, Height: 32},
		{Dataset: "cube", Method: "bsbrc", Width: 32, Height: -3},
		// Over the frame pixel cap: rejected at admission, before any
		// rank allocates (2^20 x 2^20 would be 16 TB per full image).
		{Dataset: "cube", Method: "bsbrc", Width: 1 << 20, Height: 1 << 20},
		{Dataset: "cube", Method: "bsbrc", Width: 1 << 20, Height: 1 << 20, Quality: "preview"},
		// Non-finite rotations: JSON cannot carry them, so the client
		// answers bad_request before anything is sent.
		{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, RotX: math.NaN()},
		{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, RotY: math.Inf(1)},
	}
	for _, req := range cases {
		if _, err := cl.Render(ctx, req); !errors.Is(err, client.ErrBadRequest) {
			t.Errorf("request %+v: got %v, want ErrBadRequest", req, err)
		}
	}
	// The connection stays usable after typed errors.
	if _, err := cl.Render(ctx, server.Request{Dataset: "cube", Width: 32, Height: 32}); err != nil {
		t.Errorf("valid request after typed errors: %v", err)
	}
}

// A request frame that arrives whole but does not decode — here a
// rotation beyond float64 range, the wire's only way to say "infinite" —
// is answered bad_request on the same connection, which then serves the
// next request.
func TestUndecodableRequestIsBadRequest(t *testing.T) {
	srv, _ := startServer(t, server.Config{P: 2})
	conn, err := net.DialTimeout("tcp", srv.Addr().String(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Minute))
	for _, body := range []string{
		`{"dataset":"cube","method":"bsbrc","width":32,"height":32,"rotx":1e999}`,
		`{"dataset":"cube","width":32,`,
	} {
		if err := server.WriteFrame(conn, []byte(body)); err != nil {
			t.Fatal(err)
		}
		var resp server.Response
		if err := server.ReadJSON(conn, server.MaxRequestFrame, &resp); err != nil {
			t.Fatalf("%s: read reply: %v", body, err)
		}
		if resp.OK || resp.Code != server.CodeBadRequest {
			t.Errorf("%s: reply %+v, want code %q", body, resp, server.CodeBadRequest)
		}
	}
	if err := server.WriteJSON(conn, server.Request{Dataset: "cube", Width: 32, Height: 32}); err != nil {
		t.Fatal(err)
	}
	var resp server.Response
	if err := server.ReadJSON(conn, server.MaxRequestFrame, &resp); err != nil || !resp.OK {
		t.Fatalf("valid request after a bad frame: resp %+v, err %v", resp, err)
	}
}

// A queued request whose deadline expires before dispatch is cancelled
// at the scheduler, never entering the rank pool. A stalled rank holds
// the single pipeline slot until the test releases it, so the pipeline
// stays busy however fast frames render.
func TestQueuedDeadlineCancels(t *testing.T) {
	srv, cl, inj := chaosServer(t, server.Config{P: 2, MaxInFlight: 1, QueueDepth: 8}, faultinject.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	occupy := server.Request{Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32}
	// Warm the dataset cache first: admission builds the plan (including
	// first-use dataset generation) before enqueueing, and the occupying
	// frames must be IN the queue, not in admission, when the
	// short-deadline request arrives.
	if _, err := cl.Render(ctx, occupy); err != nil {
		t.Fatalf("warm-up frame: %v", err)
	}

	// Every transport operation of rank 1 now blocks until EndWorld.
	inj.Stall(1, time.Hour)
	var wg sync.WaitGroup
	send := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := cl.Render(ctx, occupy); err != nil {
				t.Errorf("occupying frame: %v", err)
			}
		}()
	}
	send()
	waitUntil(t, "the first frame to hold the pipeline slot", func() bool { return srv.Stats().Inflight == 1 })
	// The dispatcher takes one more job off the queue and waits for the
	// slot; everything admitted after that stays queued.
	send()
	send()
	waitUntil(t, "a frame queued behind the held one", func() bool { return srv.Stats().QueueLen == 1 })
	short := make(chan error, 1)
	go func() {
		_, err := cl.Render(ctx, server.Request{
			Dataset: "cube", Method: "bsbrc", Width: 32, Height: 32, DeadlineMS: 1,
		})
		short <- err
	}()
	waitUntil(t, "the short-deadline request to queue", func() bool { return srv.Stats().QueueLen == 2 })
	// Outlast the 1 ms deadline before anything can leave the queue.
	time.Sleep(10 * time.Millisecond)
	inj.EndWorld()
	if err := <-short; !errors.Is(err, client.ErrDeadline) {
		t.Errorf("short-deadline queued request: got %v, want ErrDeadline", err)
	}
	wg.Wait()
}

// waitUntil polls cond until it holds, failing the test after a minute.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(time.Minute); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// The mpnet resident world serves frames identical to the in-process
// world and tears down cleanly.
func TestServeOverMPNetWorld(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := server.Start(server.Config{
		Addr: "127.0.0.1:0", World: "mpnet", P: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(srv.Addr().String())
	req := server.Request{Dataset: "cube", Method: "bsbr", Width: 48, Height: 48, RotY: 20}
	ref := referenceGray(t, req, 2, 0)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, err := cl.Render(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Gray, ref) {
		t.Error("mpnet-served frame differs from one-shot harness run")
	}
	cl.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	waitNoLeaks(t, before)
}

func TestUnknownWorldKind(t *testing.T) {
	if _, err := server.Start(server.Config{World: "smoke", Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("unknown world kind must fail Start")
	}
}
