// Command discoverd runs one DISCOVER interaction/collaboration server:
// web portal API, application daemon, and (when a trader is given) the
// peer-to-peer middleware substrate.
//
// Usage:
//
//	discoverd -name rutgers -http 127.0.0.1:8080 -daemon 127.0.0.1:7000 \
//	          -trader 127.0.0.1:7100 -user alice:wonderland -user bob:pw
//
// Without -trader the server runs standalone (the centralized baseline).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"discover"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var users multiFlag
	name := flag.String("name", "discover1", "unique server name (no '/' or '#')")
	httpAddr := flag.String("http", "127.0.0.1:8080", "web portal listen address")
	daemonAddr := flag.String("daemon", "127.0.0.1:7000", "application daemon listen address")
	orbAddr := flag.String("orb", "127.0.0.1:0", "middleware ORB listen address")
	traderAddr := flag.String("trader", "", "trader endpoint to join (empty = standalone)")
	site := flag.String("site", "", "site property advertised in the trader offer")
	userDir := flag.String("userdir", "", "centralized user directory address (often the trader address)")
	tlsSelf := flag.Bool("tls-self-signed", false, "serve the portal over HTTPS with an ephemeral certificate")
	tlsCert := flag.String("tls-cert", "", "PEM certificate for the HTTPS portal")
	tlsKey := flag.String("tls-key", "", "PEM key for the HTTPS portal")
	traceSample := flag.Int("trace-sample", 0, "sample 1-in-N portal requests for tracing (0 = off)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the portal")
	dataDir := flag.String("data-dir", "", "persist domain state (WAL + snapshots) under this directory; empty = in-memory")
	snapEvery := flag.Duration("snapshot-every", 0, "durable domain snapshot/compaction cadence (0 = 1m)")
	walSync := flag.Duration("wal-sync-every", 0, "WAL group-fsync interval (0 = 100ms)")
	flag.Var(&users, "user", "home user as user:secret (repeatable)")
	flag.Parse()

	cfg := discover.DomainConfig{
		Name:          *name,
		HTTPAddr:      *httpAddr,
		DaemonAddr:    *daemonAddr,
		ORBAddr:       *orbAddr,
		TraderAddr:    *traderAddr,
		Users:         map[string]string{},
		RecordUpdates: true,

		TraceSampleEvery: *traceSample,
		EnablePprof:      *pprofOn,
		DataDir:          *dataDir,
		SnapshotEvery:    *snapEvery,
		WalSyncEvery:     *walSync,
	}
	if *site != "" {
		cfg.Props = map[string]string{"site": *site}
	}
	cfg.UserDirAddr = *userDir
	switch {
	case *tlsSelf:
		cfg.TLS = &discover.TLSConfig{SelfSigned: true}
	case *tlsCert != "" || *tlsKey != "":
		cfg.TLS = &discover.TLSConfig{CertFile: *tlsCert, KeyFile: *tlsKey}
	}
	for _, u := range users {
		user, secret, ok := strings.Cut(u, ":")
		if !ok {
			log.Fatalf("discoverd: -user %q must be user:secret", u)
		}
		cfg.Users[user] = secret
	}

	d, err := discover.StartDomain(cfg)
	if err != nil {
		log.Fatalf("discoverd: %v", err)
	}
	defer d.Close()

	fmt.Printf("discoverd: server %q\n", *name)
	fmt.Printf("  portal : %s\n", d.BaseURL())
	fmt.Printf("  daemon : %s\n", d.DaemonAddr())
	if d.Substrate != nil {
		fmt.Printf("  peers  : %v (via trader %s)\n", d.Substrate.Peers(), *traderAddr)
	} else {
		fmt.Println("  mode   : standalone (no federation)")
	}

	// SIGTERM must take the graceful path too: on a durable domain the
	// deferred Close drains, snapshots, and writes the clean-shutdown
	// marker so the next start skips WAL replay.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("discoverd: shutting down")
}
