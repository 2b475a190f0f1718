// Command traderd runs the federation's shared Trader service: the
// discovery backbone DISCOVER servers use to find each other (the paper's
// minimal CORBA trader). Applications need no naming service: an
// application id names its host server.
//
// Usage:
//
//	traderd -addr 127.0.0.1:7100
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	"discover"
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	var users multiFlag
	addr := flag.String("addr", "127.0.0.1:7100", "listen address for the trader endpoint")
	flag.Var(&users, "user", "register user:secret in the centralized user directory (repeatable)")
	flag.Parse()

	t, err := discover.StartTrader(*addr)
	if err != nil {
		log.Fatalf("traderd: %v", err)
	}
	defer t.Close()
	fmt.Printf("traderd: trader service at %s\n", t.Addr())
	if len(users) > 0 {
		dir := t.UserDirectory()
		for _, u := range users {
			user, secret, ok := strings.Cut(u, ":")
			if !ok {
				log.Fatalf("traderd: -user %q must be user:secret", u)
			}
			dir.Register(user, secret, nil)
		}
		fmt.Printf("traderd: user directory enabled with %d user(s)\n", len(users))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("traderd: shutting down")
}
