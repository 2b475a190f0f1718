package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"discover/internal/telemetry"
)

// deployObservable deploys a server with 1-in-1 trace sampling and an
// HTTP listener, resetting the process-wide telemetry state around it.
func deployObservable(t *testing.T, opts ...func(*Config)) (*testDeployment, *httpClient) {
	t.Helper()
	telemetry.Reset()
	t.Cleanup(telemetry.Reset)
	d := deploy(t, opts...)
	ts := httptest.NewServer(d.srv.HTTPHandler())
	t.Cleanup(ts.Close)
	return d, &httpClient{t: t, base: ts.URL}
}

// TestTraceEndpoint drives one sampled command and retrieves its trace
// through the portal API.
func TestTraceEndpoint(t *testing.T) {
	d, c := deployObservable(t, func(cfg *Config) { cfg.TraceSampleEvery = 1 })

	lr, code := c.login("alice", "pw")
	if code != 200 {
		t.Fatalf("login -> %d", code)
	}
	var conn ConnectResponse
	if code := c.post("/api/v1/connect", ConnectRequest{ClientID: lr.ClientID, App: d.app.AppID()}, &conn); code != 200 {
		t.Fatalf("connect -> %d", code)
	}
	var cr CommandResponse
	if code := c.post("/api/v1/command", CommandRequest{ClientID: lr.ClientID, Op: "status"}, &cr); code != 200 {
		t.Fatalf("command -> %d", code)
	}
	if cr.TraceID == "" {
		t.Fatal("sampled command returned no traceId")
	}

	var rec telemetry.TraceRecord
	if code := c.get("/api/v1/trace/"+cr.TraceID, &rec); code != 200 {
		t.Fatalf("GET /api/v1/trace/%s -> %d", cr.TraceID, code)
	}
	if rec.ID != cr.TraceID || len(rec.Spans) == 0 {
		t.Fatalf("trace record = %+v", rec)
	}
	foundEdge := false
	for _, sp := range rec.Spans {
		if sp.Hop == telemetry.HopEdge && sp.DurNanos > 0 {
			foundEdge = true
		}
	}
	if !foundEdge {
		t.Errorf("no edge span in %+v", rec.Spans)
	}

	var recent []telemetry.TraceRecord
	if code := c.get("/api/v1/trace?max=10", &recent); code != 200 || len(recent) == 0 {
		t.Errorf("GET /api/v1/trace -> %d, %d records", code, len(recent))
	}

	if code := c.get("/api/v1/trace/zz-not-hex", nil); code != 400 {
		t.Errorf("bad trace id -> %d, want 400", code)
	}
	if code := c.get("/api/v1/trace/00000000000000ff", nil); code != 404 {
		t.Errorf("unknown trace id -> %d, want 404", code)
	}
}

// TestMetricsEndpoint scrapes GET /metrics and checks the Prometheus text
// exposition shape.
func TestMetricsEndpoint(t *testing.T) {
	_, c := deployObservable(t)

	// Populate a histogram the way the middleware does.
	telemetry.GetHistogram("discover_test_scrape_seconds", "op", "unit").Observe(3 * time.Millisecond)

	resp, err := http.Get(c.base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics -> %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content-type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)
	for _, want := range []string{
		"# TYPE discover_test_scrape_seconds histogram",
		`discover_test_scrape_seconds_bucket{op="unit",le="+Inf"} 1`,
		`discover_test_scrape_seconds_count{op="unit"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, out)
		}
	}
}

// TestPprofGated checks that the profiling endpoints exist only when the
// config enables them.
func TestPprofGated(t *testing.T) {
	_, off := deployObservable(t)
	if code := off.get("/debug/pprof/cmdline", nil); code != 404 {
		t.Errorf("pprof disabled but /debug/pprof/cmdline -> %d", code)
	}
	_, on := deployObservable(t, func(cfg *Config) { cfg.EnablePprof = true })
	if code := on.get("/debug/pprof/cmdline", nil); code != 200 {
		t.Errorf("pprof enabled but /debug/pprof/cmdline -> %d", code)
	}
}
