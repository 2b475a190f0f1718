package deploy

import (
	"net"
	"runtime"
	"testing"
	"time"
)

// TestStartDomainFailureLeaksNothing checks StartDomain's error paths: a
// domain that cannot bind its ORB endpoint (with the session janitor
// configured) or its daemon (with a durable data directory) returns the
// error and leaves no goroutine behind — no janitor, no WAL journal.
func TestStartDomainFailureLeaksNothing(t *testing.T) {
	tr, err := StartTrader("127.0.0.1:0", Env{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	quiet := func(string, ...any) {}
	for name, cfg := range map[string]DomainConfig{
		"occupied ORB address": {Name: "leaky", Logf: quiet,
			ORBAddr: busy.Addr().String(), TraderAddr: tr.Addr(), SessionIdleTimeout: time.Minute},
		"occupied daemon address": {Name: "leaky", Logf: quiet,
			DaemonAddr: busy.Addr().String(), DataDir: t.TempDir()},
	} {
		before := runtime.NumGoroutine()
		if d, err := StartDomain(cfg, Env{}); err == nil {
			d.Close()
			t.Fatalf("%s: StartDomain succeeded", name)
		}
		after := runtime.NumGoroutine()
		for deadline := time.Now().Add(3 * time.Second); after > before && time.Now().Before(deadline); {
			time.Sleep(10 * time.Millisecond)
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("%s: %d goroutines after the failed start, %d before", name, after, before)
		}
	}
}
