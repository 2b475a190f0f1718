package auth

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestPrivilegeOrderAndNames(t *testing.T) {
	if !Steer.AtLeast(Monitor) || !Steer.AtLeast(Steer) {
		t.Error("Steer should dominate Monitor and itself")
	}
	if Monitor.AtLeast(Interact) {
		t.Error("Monitor should not dominate Interact")
	}
	for _, p := range []Privilege{None, Monitor, Interact, Steer} {
		got, err := ParsePrivilege(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePrivilege(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePrivilege("root"); err == nil {
		t.Error("ParsePrivilege(root) should fail")
	}
	if Privilege(9).String() != "privilege(9)" {
		t.Errorf("unknown privilege String() = %q", Privilege(9).String())
	}
}

func TestACL(t *testing.T) {
	a := NewACL(Entry{"alice", Steer}, Entry{"bob", Monitor}, Entry{"zero", None})
	if got := a.Privilege("alice"); got != Steer {
		t.Errorf("alice = %v", got)
	}
	if got := a.Privilege("zero"); got != None {
		t.Error("None entries should not be stored")
	}
	if got := a.Privilege("mallory"); got != None {
		t.Errorf("mallory = %v", got)
	}
	a.Grant("carol", Interact)
	a.Revoke("bob")
	for user, want := range map[string]Privilege{"alice": Steer, "carol": Interact, "bob": None} {
		if got := a.Privilege(user); got != want {
			t.Errorf("after Grant/Revoke %s = %v, want %v", user, got, want)
		}
	}
}

func newTestService(t *testing.T, opts ...Option) *Service {
	t.Helper()
	s := NewService("rutgers", opts...)
	s.SetUserSecret("alice", "wonderland")
	s.RegisterApp("app1", NewACL(Entry{"alice", Steer}, Entry{"bob", Monitor}))
	s.RegisterApp("app2", NewACL(Entry{"alice", Monitor}))
	return s
}

func TestLoginAndTokens(t *testing.T) {
	s := newTestService(t)
	tok, err := s.Login(context.Background(), "alice", "wonderland")
	if err != nil {
		t.Fatalf("Login: %v", err)
	}
	if err := s.VerifyToken(tok); err != nil {
		t.Errorf("VerifyToken: %v", err)
	}
	if _, err := s.Login(context.Background(), "alice", "wrong"); err != ErrBadSecret {
		t.Errorf("wrong secret: err = %v", err)
	}
	if _, err := s.Login(context.Background(), "mallory", "x"); err != ErrUnknownUser {
		t.Errorf("unknown user: err = %v", err)
	}
	// bob is listed by app1 but has no home credential here.
	if _, err := s.Login(context.Background(), "bob", ""); err != ErrBadSecret {
		t.Errorf("bob without credential: err = %v", err)
	}
}

func TestLoginAsserted(t *testing.T) {
	s := newTestService(t)
	tok, err := s.LoginAsserted("bob")
	if err != nil {
		t.Fatalf("LoginAsserted(bob): %v", err)
	}
	if err := s.VerifyToken(tok); err != nil {
		t.Errorf("VerifyToken: %v", err)
	}
	if _, err := s.LoginAsserted("mallory"); err != ErrUnknownUser {
		t.Errorf("asserted unknown user: err = %v", err)
	}
}

func TestTokenForgeryDetected(t *testing.T) {
	s := newTestService(t)
	tok, err := s.Login(context.Background(), "alice", "wonderland")
	if err != nil {
		t.Fatal(err)
	}
	forged := tok
	forged.User = "mallory"
	if err := s.VerifyToken(forged); err != ErrBadToken {
		t.Errorf("forged user: err = %v, want ErrBadToken", err)
	}
	forged = tok
	forged.Expiry += int64(time.Hour)
	if err := s.VerifyToken(forged); err != ErrBadToken {
		t.Errorf("extended expiry: err = %v, want ErrBadToken", err)
	}
	other := NewService("caltech")
	if err := other.VerifyToken(tok); err != ErrWrongServer {
		t.Errorf("cross-server token: err = %v, want ErrWrongServer", err)
	}
}

func TestTokenExpiry(t *testing.T) {
	now := time.Now()
	clock := &now
	s := NewService("rutgers",
		WithTTL(time.Minute),
		WithClock(func() time.Time { return *clock }))
	s.SetUserSecret("alice", "pw")
	s.RegisterApp("app1", NewACL(Entry{"alice", Steer}))
	tok, err := s.Login(context.Background(), "alice", "pw")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyToken(tok); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if err := s.VerifyToken(tok); err != ErrExpired {
		t.Errorf("expired token: err = %v, want ErrExpired", err)
	}
	if _, err := s.Authorize(tok, "app1"); err != ErrExpired {
		t.Errorf("Authorize with expired token: err = %v", err)
	}
}

func TestAuthorizeLevelTwo(t *testing.T) {
	s := newTestService(t)
	tok, err := s.Login(context.Background(), "alice", "wonderland")
	if err != nil {
		t.Fatal(err)
	}
	cap1, err := s.Authorize(tok, "app1")
	if err != nil {
		t.Fatalf("Authorize(app1): %v", err)
	}
	if cap1.Priv != Steer || cap1.App != "app1" || cap1.User != "alice" {
		t.Errorf("capability = %+v", cap1)
	}
	if err := s.VerifyCapability(cap1); err != nil {
		t.Errorf("VerifyCapability: %v", err)
	}
	cap2, err := s.Authorize(tok, "app2")
	if err != nil || cap2.Priv != Monitor {
		t.Errorf("Authorize(app2) = %+v, %v", cap2, err)
	}
	if _, err := s.Authorize(tok, "nosuch"); err != ErrNoAccess {
		t.Errorf("Authorize(nosuch): err = %v", err)
	}

	// Privilege escalation in a forged capability must be caught.
	forged := cap2
	forged.Priv = Steer
	if err := s.VerifyCapability(forged); err != ErrBadToken {
		t.Errorf("escalated capability: err = %v, want ErrBadToken", err)
	}
}

func TestKnownUserAndAccessibleApps(t *testing.T) {
	s := newTestService(t)
	if !s.KnownUser("bob") || s.KnownUser("mallory") {
		t.Error("KnownUser wrong")
	}
	apps := s.AccessibleApps("alice")
	if !reflect.DeepEqual(apps, []string{"app1", "app2"}) {
		t.Errorf("alice apps = %v", apps)
	}
	if apps := s.AccessibleApps("bob"); !reflect.DeepEqual(apps, []string{"app1"}) {
		t.Errorf("bob apps = %v", apps)
	}
	s.UnregisterApp("app1")
	if s.KnownUser("bob") {
		t.Error("bob should vanish with app1")
	}
	if got := s.Privilege("alice", "app1"); got != None {
		t.Errorf("privilege after unregister = %v", got)
	}
}

func TestTokenEncodeParseRoundTrip(t *testing.T) {
	s := newTestService(t)
	tok, err := s.Login(context.Background(), "alice", "wonderland")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseToken(tok.Encode())
	if err != nil {
		t.Fatalf("ParseToken: %v", err)
	}
	if err := s.VerifyToken(parsed); err != nil {
		t.Errorf("round-tripped token fails verification: %v", err)
	}
	if _, err := ParseToken("garbage"); err != ErrMalformed {
		t.Errorf("ParseToken(garbage) err = %v", err)
	}
	if _, err := ParseToken("a.b.c.d.!!!"); err == nil {
		t.Error("bad base64 should fail")
	}
}

func TestCapabilityEncodeParseRoundTrip(t *testing.T) {
	s := newTestService(t)
	tok, _ := s.Login(context.Background(), "alice", "wonderland")
	c, err := s.Authorize(tok, "app1")
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseCapability(c.Encode())
	if err != nil {
		t.Fatalf("ParseCapability: %v", err)
	}
	if err := s.VerifyCapability(parsed); err != nil {
		t.Errorf("round-tripped capability fails verification: %v", err)
	}
	if _, err := ParseCapability("x.y"); err != ErrMalformed {
		t.Errorf("short capability err = %v", err)
	}
}

// Property: token encode/parse round-trips for arbitrary users and servers,
// including separator-hostile names.
func TestTokenEncodingProperty(t *testing.T) {
	prop := func(user, server string, issued, expiry int64, mac []byte) bool {
		tok := Token{User: user, Server: server, Issued: issued, Expiry: expiry, MAC: mac}
		got, err := ParseToken(tok.Encode())
		if err != nil {
			return false
		}
		if got.User != user || got.Server != server || got.Issued != issued || got.Expiry != expiry {
			return false
		}
		if len(got.MAC) != len(mac) {
			return false
		}
		for i := range mac {
			if got.MAC[i] != mac[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	// Explicit hostile names containing the separator.
	hostile := Token{User: "a.b.c", Server: "x.y", Issued: 1, Expiry: 2, MAC: []byte{0}}
	got, err := ParseToken(hostile.Encode())
	if err != nil || got.User != "a.b.c" || got.Server != "x.y" {
		t.Errorf("separator-hostile round trip: %+v, %v", got, err)
	}
}

// Property: the ACL invariant — a user never sees an app absent from their
// ACL view, and Authorize agrees with Privilege.
func TestAuthorizeAgreesWithACLProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	users := []string{"u1", "u2", "u3", "u4"}
	apps := []string{"a1", "a2", "a3"}
	for trial := 0; trial < 50; trial++ {
		s := NewService("srv")
		grant := make(map[string]map[string]Privilege)
		for _, app := range apps {
			acl := NewACL()
			grant[app] = make(map[string]Privilege)
			for _, u := range users {
				p := Privilege(r.Intn(4))
				acl.Grant(u, p)
				grant[app][u] = p
			}
			s.RegisterApp(app, acl)
		}
		for _, u := range users {
			visible := make(map[string]bool)
			for _, a := range s.AccessibleApps(u) {
				visible[a] = true
			}
			for _, app := range apps {
				wantVisible := grant[app][u] != None
				if visible[app] != wantVisible {
					t.Fatalf("trial %d: user %s app %s visible=%v want %v",
						trial, u, app, visible[app], wantVisible)
				}
				tok, err := s.LoginAsserted(u)
				if err != nil {
					if s.KnownUser(u) {
						t.Fatalf("LoginAsserted(%s): %v", u, err)
					}
					continue
				}
				c, err := s.Authorize(tok, app)
				if wantVisible {
					if err != nil || c.Priv != grant[app][u] {
						t.Fatalf("Authorize(%s,%s) = %+v, %v; want priv %v",
							u, app, c, err, grant[app][u])
					}
				} else if err != ErrNoAccess {
					t.Fatalf("Authorize(%s,%s) err = %v, want ErrNoAccess", u, app, err)
				}
			}
		}
	}
}
