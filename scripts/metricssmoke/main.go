// Command metricssmoke is the CI smoke test for the observability
// endpoints: it starts one in-process domain with tracing enabled,
// drives a sampled command through the portal API, and scrapes
// GET /metrics and GET /api/v1/trace/{id} the way an operator would.
//
// It exits non-zero when the scrape is not well-formed Prometheus text,
// when the expected middleware histograms are missing, or when the
// sampled command's trace cannot be fetched back.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"discover"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "metricssmoke:", err)
		os.Exit(1)
	}
	fmt.Println("metricssmoke: ok")
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	domain, err := discover.StartDomain(discover.DomainConfig{
		Name:             "smoke",
		HTTPAddr:         "127.0.0.1:0",
		Users:            map[string]string{"alice": "pw"},
		TraceSampleEvery: 1,
		Logf:             func(string, ...any) {},
	})
	if err != nil {
		return err
	}
	defer domain.Close()

	kernel, err := discover.NewKernel("seismic-1d")
	if err != nil {
		return err
	}
	app, err := discover.NewApplication(ctx, domain.DaemonAddr(), discover.AppConfig{
		Name:   "smoke-app",
		Kernel: kernel,
		Users:  []discover.UserGrant{{User: "alice", Privilege: "steer"}},
	})
	if err != nil {
		return err
	}
	go app.Run(ctx)

	base := domain.BaseURL()

	// Drive one sampled command end to end.
	var login struct{ ClientID string }
	if err := post(base+"/api/v1/login", map[string]string{"user": "alice", "secret": "pw"}, &login); err != nil {
		return fmt.Errorf("login: %w", err)
	}
	if err := post(base+"/api/v1/connect", map[string]string{"clientId": login.ClientID, "app": app.ID()}, nil); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	var cmd struct{ TraceID string }
	if err := post(base+"/api/v1/command", map[string]any{"clientId": login.ClientID, "op": "status"}, &cmd); err != nil {
		return fmt.Errorf("command: %w", err)
	}
	if cmd.TraceID == "" {
		return fmt.Errorf("sampled command returned no traceId")
	}

	// The trace must be fetchable by id.
	var trace struct {
		ID    string
		Spans []struct{ Hop string }
	}
	if err := get(base+"/api/v1/trace/"+cmd.TraceID, &trace); err != nil {
		return fmt.Errorf("trace fetch: %w", err)
	}
	if trace.ID != cmd.TraceID || len(trace.Spans) == 0 {
		return fmt.Errorf("trace %s came back empty", cmd.TraceID)
	}

	// The scrape must be Prometheus text carrying the middleware series.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("GET /metrics -> %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("GET /metrics content-type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	out := string(body)
	// The lock and FIFO histograms register at server construction, so
	// they are present even on a standalone (peer-less) domain.
	for _, want := range []string{
		"# TYPE discover_lock_acquire_seconds histogram",
		"# TYPE discover_fifo_wait_seconds histogram",
		"discover_fifo_wait_seconds_count",
		`le="+Inf"`,
	} {
		if !strings.Contains(out, want) {
			return fmt.Errorf("scrape lacks %q", want)
		}
	}
	return nil
}

func post(url string, body any, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s -> %d: %s", url, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func get(url string, out any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		return fmt.Errorf("%s -> %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
