package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"
)

// The contract tests pin the /api/v1 surface: every route answers on its
// versioned path and nowhere else under /api, and every non-2xx response
// is the uniform error envelope with a registered code whose HTTP status
// matches the registry mapping.

func newContractServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "contract"
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.HTTPHandler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// doRoute issues one request against a route with deliberately invalid
// input (empty body / missing params), so gated routes produce an error
// envelope and open routes answer 200.
func doRoute(t *testing.T, base string, rt apiRoute, prefix string) *http.Response {
	t.Helper()
	path := strings.ReplaceAll(rt.Path, "{id}", "123abc")
	url := base + prefix + path
	var (
		resp *http.Response
		err  error
	)
	if rt.Method == "POST" {
		resp, err = http.Post(url, "application/json", bytes.NewReader([]byte(`{}`)))
	} else {
		resp, err = http.Get(url)
	}
	if err != nil {
		t.Fatalf("%s %s: %v", rt.Method, url, err)
	}
	return resp
}

// checkEnvelope asserts a non-2xx body is exactly the uniform envelope
// with a registered code matching the response status.
func checkEnvelope(t *testing.T, resp *http.Response, route string) {
	t.Helper()
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatalf("%s: body is not JSON: %v", route, err)
	}
	inner, ok := raw["error"]
	if !ok || len(raw) != 1 {
		t.Fatalf("%s: body is not the error envelope: %v", route, raw)
	}
	var body ErrorBody
	if err := json.Unmarshal(inner, &body); err != nil {
		t.Fatalf("%s: error field is not an object: %v", route, err)
	}
	if body.Code == "" || body.Message == "" {
		t.Errorf("%s: envelope missing code or message: %+v", route, body)
	}
	registered := false
	for _, c := range ErrorCodes() {
		if c == body.Code {
			registered = true
		}
	}
	if !registered {
		t.Errorf("%s: code %q not in the registry", route, body.Code)
	}
	if got := body.Code.httpStatus(); got != resp.StatusCode {
		t.Errorf("%s: status %d but code %q maps to %d", route, resp.StatusCode, body.Code, got)
	}
}

func TestContractEveryRoute(t *testing.T) {
	srv, ts := newContractServer(t, Config{})
	for _, rt := range srv.Routes() {
		route := rt.Method + " " + rt.Path

		v1 := doRoute(t, ts.URL, rt, APIVersion)
		if rt.Open || rt.Path == "/logout" {
			// Open routes bypass admission control; logout is idempotent
			// (200 for an unknown client id). A 4xx from bad probe input
			// (e.g. an unknown trace id) must still be the envelope.
			if v1.StatusCode == http.StatusTooManyRequests ||
				v1.StatusCode == http.StatusServiceUnavailable {
				t.Errorf("%s: open route was shed with %d", route, v1.StatusCode)
			}
			if v1.StatusCode/100 == 2 {
				v1.Body.Close()
			} else {
				checkEnvelope(t, v1, route)
			}
		} else {
			if v1.StatusCode/100 == 2 {
				t.Errorf("%s: invalid input got %d", route, v1.StatusCode)
				v1.Body.Close()
			} else {
				checkEnvelope(t, v1, route)
			}
		}

		// No unversioned alias: GET /api/apps, POST /api/login and every
		// other /api path outside /api/v1 are unknown to the mux.
		unversioned := doRoute(t, ts.URL, rt, "/api")
		if unversioned.StatusCode != http.StatusNotFound {
			t.Errorf("%s: unversioned /api path answered %d, want 404", route, unversioned.StatusCode)
		}
		unversioned.Body.Close()
	}
}

func TestContractRegistryCoversStatuses(t *testing.T) {
	for _, c := range ErrorCodes() {
		if st := c.httpStatus(); st < 400 || st > 599 {
			t.Errorf("code %q maps to non-error status %d", c, st)
		}
	}
	if ErrCode("no-such-code").httpStatus() != http.StatusInternalServerError {
		t.Error("unknown codes must map to 500")
	}
}

// TestContractSessionTableHammer drives login/poll/logout concurrently
// through the full HTTP edge; under -race it checks the session table
// and the admission gate for data races.
func TestContractSessionTableHammer(t *testing.T) {
	srv, ts := newContractServer(t, Config{})
	srv.Auth().SetUserSecret("alice", "pw")

	var wg sync.WaitGroup
	errs := make(chan error, 256)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				var lr LoginResponse
				if err := postJSON(ts.URL+"/api/v1/login",
					LoginRequest{User: "alice", Secret: "pw"}, &lr); err != nil {
					errs <- err
					return
				}
				for j := 0; j < 3; j++ {
					resp, err := http.Get(ts.URL + "/api/v1/session/" + url.PathEscape(lr.ClientID) + "/events")
					if err != nil {
						errs <- err
						return
					}
					resp.Body.Close()
				}
				if err := postJSON(ts.URL+"/api/v1/logout",
					map[string]string{"clientId": lr.ClientID}, nil); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := srv.Sessions().Len(); n != 0 {
		t.Errorf("%d sessions leaked", n)
	}
}

func postJSON(url string, body, out any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: HTTP %d", url, resp.StatusCode)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

func TestContractRateLimitShedsWithRetryHint(t *testing.T) {
	srv, ts := newContractServer(t, Config{
		RequestRatePerSec: 1, RequestBurst: 1,
		RetryAfterHint: 125 * time.Millisecond,
	})
	srv.Auth().SetUserSecret("alice", "pw")
	var lr LoginResponse
	if err := postJSON(ts.URL+"/api/v1/login",
		LoginRequest{User: "alice", Secret: "pw"}, &lr); err != nil {
		t.Fatal(err)
	}

	// The single burst token admits one poll; the next must shed.
	resp, err := http.Get(ts.URL + "/api/v1/session/" + url.PathEscape(lr.ClientID) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/api/v1/session/" + url.PathEscape(lr.ClientID) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second poll got %d, want 429", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if er.Error.Code != CodeRateLimited {
		t.Errorf("code = %q, want rate_limited", er.Error.Code)
	}
	if er.Error.RetryAfterMS != 125 {
		t.Errorf("retry_after_ms = %d, want 125", er.Error.RetryAfterMS)
	}
	es := srv.EdgeStats()
	if es.ShedRateLimited == 0 {
		t.Error("shed not counted in EdgeStats")
	}
	if es.RetryAfterMS != 125 {
		t.Errorf("EdgeStats.RetryAfterMS = %d", es.RetryAfterMS)
	}
}

// TestContractLoginRateLimitPerUser: with the per-user login bucket on,
// the login past the burst sheds with 429 rate_limited and a retry hint,
// while another user's bucket is untouched.
func TestContractLoginRateLimitPerUser(t *testing.T) {
	srv, ts := newContractServer(t, Config{LoginRatePerSec: 0.001, LoginBurst: 2})
	srv.Auth().SetUserSecret("alice", "pw")
	srv.Auth().SetUserSecret("bob", "pw")
	login := func(user string) *http.Response {
		t.Helper()
		var body bytes.Buffer
		json.NewEncoder(&body).Encode(LoginRequest{User: user, Secret: "pw"})
		resp, err := http.Post(ts.URL+"/api/v1/login", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 2; i++ {
		resp := login("alice")
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("login %d within the burst got %d", i+1, resp.StatusCode)
		}
	}
	resp := login("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("login past the burst got %d, want 429", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if er.Error.Code != CodeRateLimited || er.Error.RetryAfterMS <= 0 {
		t.Errorf("shed login = %+v, want rate_limited with retry_after_ms", er.Error)
	}
	resp = login("bob")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("another user's login got %d, want 200", resp.StatusCode)
	}
	if es := srv.EdgeStats(); es.ShedRateLimited != 1 {
		t.Errorf("shedRateLimited = %d, want 1", es.ShedRateLimited)
	}
}

func TestContractOverloadShedsAtInflightCap(t *testing.T) {
	srv, _ := newContractServer(t, Config{MaxInflight: 2})
	// Fill both slots directly, then the next admission must shed.
	for i := 0; i < 2; i++ {
		if ok, _ := srv.gate.enter(); !ok {
			t.Fatalf("slot %d refused", i)
		}
	}
	ok, reason := srv.gate.enter()
	if ok || reason != CodeOverloaded {
		t.Fatalf("third enter: ok=%v reason=%q, want overloaded", ok, reason)
	}
	for i := 0; i < 2; i++ {
		srv.gate.leave()
	}
	if ok, _ := srv.gate.enter(); !ok {
		t.Fatal("slot not released")
	}
	srv.gate.leave()
	es := srv.EdgeStats()
	if es.ShedOverload != 1 || es.InflightPeak != 2 || es.MaxInflight != 2 {
		t.Errorf("EdgeStats = %+v", es)
	}
}

func TestContractDrainingSheds(t *testing.T) {
	srv, ts := newContractServer(t, Config{})
	srv.Auth().SetUserSecret("alice", "pw")
	var lr LoginResponse
	if err := postJSON(ts.URL+"/api/v1/login",
		LoginRequest{User: "alice", Secret: "pw"}, &lr); err != nil {
		t.Fatal(err)
	}
	srv.BeginDrain()
	if !srv.Draining() {
		t.Fatal("Draining() false after BeginDrain")
	}
	resp, err := http.Get(ts.URL + "/api/v1/session/" + url.PathEscape(lr.ClientID) + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain poll got %d, want 503", resp.StatusCode)
	}
	var er ErrorResponse
	json.NewDecoder(resp.Body).Decode(&er)
	resp.Body.Close()
	if er.Error.Code != CodeShuttingDown {
		t.Errorf("code = %q, want shutting_down", er.Error.Code)
	}
	// The observability surface stays reachable while draining.
	resp, err = http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Edge == nil || !stats.Edge.Draining || stats.Edge.ShedDraining == 0 {
		t.Errorf("stats.Edge = %+v", stats.Edge)
	}
}

func TestContractStatsEdgeBlock(t *testing.T) {
	_, ts := newContractServer(t, Config{})
	resp, err := http.Get(ts.URL + "/api/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Edge == nil {
		t.Fatal("stats missing edge block")
	}
	if stats.Edge.MaxInflight != DefaultMaxInflight {
		t.Errorf("maxInflight = %d", stats.Edge.MaxInflight)
	}
}
