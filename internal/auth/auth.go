// Package auth implements DISCOVER's two-level security model.
//
// Level one authorizes access to a server; level two authorizes access to
// a particular application, yielding a capability whose privilege controls
// the interaction interface the client is given.
//
// Following the paper (§5.2.2, §6.3), users do not belong to a server:
// when an application registers it supplies the list of authorized
// user-ids and their privileges, and these lists form per user-application
// ACLs. A user is known to a server exactly when at least one registered
// application lists them. User-ids are assumed consistent across servers;
// a user authenticates with a secret at their home server, while peer
// servers accept the home server's assertion of the user-id (the paper's
// "once a user-ID is supplied, a server will automatically authenticate
// that user-ID" trust model — see LoginAsserted).
package auth

import (
	"context"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Privilege orders what a user may do with an application. The paper's
// "read-only" maps to Monitor and "read-write" to Steer; Interact is the
// intermediate level (queries and view requests but no state changes).
type Privilege uint8

// Privilege levels, from least to most capable.
const (
	None     Privilege = iota // no access; the application is invisible
	Monitor                   // observe status and periodic updates
	Interact                  // issue view/query commands
	Steer                     // change parameters, issue commands, hold locks
)

var privNames = [...]string{"none", "monitor", "interact", "steer"}

// String returns the lower-case privilege name.
func (p Privilege) String() string {
	if int(p) < len(privNames) {
		return privNames[p]
	}
	return fmt.Sprintf("privilege(%d)", uint8(p))
}

// ParsePrivilege converts a privilege name (as carried in registration
// messages) back to a Privilege.
func ParsePrivilege(s string) (Privilege, error) {
	for i, n := range privNames {
		if n == s {
			return Privilege(i), nil
		}
	}
	return None, fmt.Errorf("auth: unknown privilege %q", s)
}

// AtLeast reports whether p grants everything q does.
func (p Privilege) AtLeast(q Privilege) bool { return p >= q }

// Entry pairs a user with a privilege in an ACL.
type Entry struct {
	User string
	Priv Privilege
}

// ACL is the per-application access control list, built from the
// user/privilege list the application supplies at registration time.
type ACL struct {
	mu      sync.RWMutex
	entries map[string]Privilege
}

// NewACL builds an ACL from entries.
func NewACL(entries ...Entry) *ACL {
	a := &ACL{entries: make(map[string]Privilege, len(entries))}
	for _, e := range entries {
		if e.Priv != None {
			a.entries[e.User] = e.Priv
		}
	}
	return a
}

// Grant sets a user's privilege; None revokes.
func (a *ACL) Grant(user string, p Privilege) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if p == None {
		delete(a.entries, user)
		return
	}
	a.entries[user] = p
}

// Revoke removes a user.
func (a *ACL) Revoke(user string) { a.Grant(user, None) }

// Privilege returns the user's privilege, None if absent.
func (a *ACL) Privilege(user string) Privilege {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.entries[user]
}

// Token is the level-one credential: the bearer is an authenticated user
// of the issuing server until Expiry.
type Token struct {
	User   string
	Server string // issuing server
	Issued int64  // unix nanoseconds
	Expiry int64  // unix nanoseconds
	MAC    []byte
}

// Capability is the level-two credential: the bearer may use application
// App at privilege Priv until Expiry.
type Capability struct {
	User   string
	App    string
	Priv   Privilege
	Server string
	Expiry int64 // unix nanoseconds
	MAC    []byte
}

// Errors returned by the service.
var (
	ErrUnknownUser = errors.New("auth: unknown user")
	ErrBadSecret   = errors.New("auth: bad secret")
	ErrBadToken    = errors.New("auth: invalid or forged token")
	ErrExpired     = errors.New("auth: credential expired")
	ErrNoAccess    = errors.New("auth: no access to application")
	ErrWrongServer = errors.New("auth: credential issued by another server")
	ErrMalformed   = errors.New("auth: malformed credential encoding")
)

// Service is a server's security/authentication handler.
type Service struct {
	serverName string
	key        []byte
	tokenTTL   time.Duration
	now        func() time.Time

	mu       sync.RWMutex
	secrets  map[string][]byte // user -> sha256(salt||secret); nil value = assert-only user
	salts    map[string][]byte
	acls     map[string]*ACL // application id -> ACL
	fallback func(ctx context.Context, user, secret string) bool
}

// Option configures a Service.
type Option func(*Service)

// WithTTL sets the token and capability lifetime (default one hour).
func WithTTL(d time.Duration) Option { return func(s *Service) { s.tokenTTL = d } }

// WithClock injects a clock, for expiry tests.
func WithClock(now func() time.Time) Option { return func(s *Service) { s.now = now } }

// WithKey sets the HMAC key explicitly (default: random per service).
func WithKey(key []byte) Option { return func(s *Service) { s.key = key } }

// NewService creates the security handler for a named server.
func NewService(serverName string, opts ...Option) *Service {
	s := &Service{
		serverName: serverName,
		tokenTTL:   time.Hour,
		now:        time.Now,
		secrets:    make(map[string][]byte),
		salts:      make(map[string][]byte),
		acls:       make(map[string]*ACL),
	}
	for _, o := range opts {
		o(s)
	}
	if s.key == nil {
		s.key = make([]byte, 32)
		if _, err := rand.Read(s.key); err != nil {
			panic("auth: cannot read random key: " + err.Error())
		}
	}
	return s
}

// ServerName returns the issuing server's name.
func (s *Service) ServerName() string { return s.serverName }

// SetUserSecret registers or changes a user's login secret at this server
// (their "home server" credential).
func (s *Service) SetUserSecret(user, secret string) {
	salt := make([]byte, 16)
	if _, err := rand.Read(salt); err != nil {
		panic("auth: cannot read random salt: " + err.Error())
	}
	h := sha256.Sum256(append(append([]byte{}, salt...), secret...))
	s.mu.Lock()
	defer s.mu.Unlock()
	s.salts[user] = salt
	s.secrets[user] = h[:]
}

// RegisterApp installs the ACL an application supplied at registration.
func (s *Service) RegisterApp(appID string, acl *ACL) {
	if acl == nil {
		acl = NewACL()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.acls[appID] = acl
}

// UnregisterApp removes an application's ACL when it disconnects.
func (s *Service) UnregisterApp(appID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.acls, appID)
}

// ACL returns the ACL registered for an application.
func (s *Service) ACL(appID string) (*ACL, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	a, ok := s.acls[appID]
	return a, ok
}

// KnownUser reports whether any registered application lists the user —
// the paper's criterion for the user being "registered" at this server.
func (s *Service) KnownUser(user string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, a := range s.acls {
		if a.Privilege(user) != None {
			return true
		}
	}
	return false
}

// AccessibleApps lists the application ids the user may at least monitor,
// sorted for deterministic output.
func (s *Service) AccessibleApps(user string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for id, a := range s.acls {
		if a.Privilege(user) != None {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// Privilege returns the user's privilege for an application.
func (s *Service) Privilege(user, appID string) Privilege {
	s.mu.RLock()
	a, ok := s.acls[appID]
	s.mu.RUnlock()
	if !ok {
		return None
	}
	return a.Privilege(user)
}

// SetFallback installs a secondary credential verifier consulted when the
// user has no home credential here — the hook for the centralized user
// directory (GIS analogue) of §6.3. The verifier receives the login
// request's context so a slow or unreachable directory cannot hold the
// login past the client's deadline.
func (s *Service) SetFallback(verify func(ctx context.Context, user, secret string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fallback = verify
}

// Login performs level-one authentication with a secret. The user must
// have a secret registered here (home server), be verifiable through the
// configured fallback directory, or be listed by some application with no
// secret requirement configured. ctx bounds the fallback lookup.
func (s *Service) Login(ctx context.Context, user, secret string) (Token, error) {
	s.mu.RLock()
	hash, hasSecret := s.secrets[user]
	salt := s.salts[user]
	fallback := s.fallback
	s.mu.RUnlock()
	if hasSecret {
		h := sha256.Sum256(append(append([]byte{}, salt...), secret...))
		if !hmac.Equal(h[:], hash) {
			return Token{}, ErrBadSecret
		}
		return s.issueToken(user), nil
	}
	if fallback != nil && fallback(ctx, user, secret) {
		return s.issueToken(user), nil
	}
	if !s.KnownUser(user) {
		return Token{}, ErrUnknownUser
	}
	return Token{}, ErrBadSecret // known to apps but no home credential here
}

// LoginAsserted performs level-one authentication on the paper's
// peer-trust model: the caller (a peer DISCOVER server) asserts the
// user-id, and this server accepts it provided some local application
// lists the user. No secret crosses the wire.
func (s *Service) LoginAsserted(user string) (Token, error) {
	if !s.KnownUser(user) {
		return Token{}, ErrUnknownUser
	}
	return s.issueToken(user), nil
}

func (s *Service) issueToken(user string) Token {
	now := s.now()
	t := Token{
		User:   user,
		Server: s.serverName,
		Issued: now.UnixNano(),
		Expiry: now.Add(s.tokenTTL).UnixNano(),
	}
	t.MAC = s.mac("tok", t.User, t.Server, strconv.FormatInt(t.Issued, 10), strconv.FormatInt(t.Expiry, 10))
	return t
}

// VerifyToken checks a token's integrity, issuer and expiry.
func (s *Service) VerifyToken(t Token) error {
	if t.Server != s.serverName {
		return ErrWrongServer
	}
	want := s.mac("tok", t.User, t.Server, strconv.FormatInt(t.Issued, 10), strconv.FormatInt(t.Expiry, 10))
	if !hmac.Equal(want, t.MAC) {
		return ErrBadToken
	}
	if s.now().UnixNano() > t.Expiry {
		return ErrExpired
	}
	return nil
}

// Authorize performs level-two authentication: given a valid level-one
// token, it issues a capability for one application at the user's ACL
// privilege.
func (s *Service) Authorize(t Token, appID string) (Capability, error) {
	if err := s.VerifyToken(t); err != nil {
		return Capability{}, err
	}
	p := s.Privilege(t.User, appID)
	if p == None {
		return Capability{}, ErrNoAccess
	}
	return s.MintCapability(t.User, appID, p), nil
}

// MintCapability issues a capability signed by this server without
// consulting the local ACL. The middleware substrate uses it to vouch
// locally for a privilege granted by a remote application's host server.
func (s *Service) MintCapability(user, appID string, p Privilege) Capability {
	c := Capability{
		User:   user,
		App:    appID,
		Priv:   p,
		Server: s.serverName,
		Expiry: s.now().Add(s.tokenTTL).UnixNano(),
	}
	c.MAC = s.mac("cap", c.User, c.App, c.Priv.String(), c.Server, strconv.FormatInt(c.Expiry, 10))
	return c
}

// VerifyCapability checks a capability's integrity, issuer and expiry.
func (s *Service) VerifyCapability(c Capability) error {
	if c.Server != s.serverName {
		return ErrWrongServer
	}
	want := s.mac("cap", c.User, c.App, c.Priv.String(), c.Server, strconv.FormatInt(c.Expiry, 10))
	if !hmac.Equal(want, c.MAC) {
		return ErrBadToken
	}
	if s.now().UnixNano() > c.Expiry {
		return ErrExpired
	}
	return nil
}

func (s *Service) mac(parts ...string) []byte {
	h := hmac.New(sha256.New, s.key)
	for _, p := range parts {
		var n [8]byte
		ln := len(p)
		for i := 0; i < 8; i++ {
			n[i] = byte(ln >> (8 * i))
		}
		h.Write(n[:]) // length-prefix each part so concatenations can't collide
		h.Write([]byte(p))
	}
	return h.Sum(nil)
}

// ---------------------------------------------------------------------------
// String encodings for HTTP headers and cross-server calls.
// ---------------------------------------------------------------------------

const encSep = "."

func encField(s string) string { return base64.RawURLEncoding.EncodeToString([]byte(s)) }

func decField(s string) (string, error) {
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return "", ErrMalformed
	}
	return string(b), nil
}

// Encode renders the token as a single header-safe string.
func (t Token) Encode() string {
	return strings.Join([]string{
		encField(t.User), encField(t.Server),
		strconv.FormatInt(t.Issued, 10), strconv.FormatInt(t.Expiry, 10),
		base64.RawURLEncoding.EncodeToString(t.MAC),
	}, encSep)
}

// ParseToken reverses Token.Encode. It does not verify the MAC; call
// Service.VerifyToken for that.
func ParseToken(s string) (Token, error) {
	parts := strings.Split(s, encSep)
	if len(parts) != 5 {
		return Token{}, ErrMalformed
	}
	user, err := decField(parts[0])
	if err != nil {
		return Token{}, err
	}
	server, err := decField(parts[1])
	if err != nil {
		return Token{}, err
	}
	issued, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return Token{}, ErrMalformed
	}
	expiry, err := strconv.ParseInt(parts[3], 10, 64)
	if err != nil {
		return Token{}, ErrMalformed
	}
	mac, err := base64.RawURLEncoding.DecodeString(parts[4])
	if err != nil {
		return Token{}, ErrMalformed
	}
	return Token{User: user, Server: server, Issued: issued, Expiry: expiry, MAC: mac}, nil
}

// Encode renders the capability as a single header-safe string.
func (c Capability) Encode() string {
	return strings.Join([]string{
		encField(c.User), encField(c.App), strconv.Itoa(int(c.Priv)),
		encField(c.Server), strconv.FormatInt(c.Expiry, 10),
		base64.RawURLEncoding.EncodeToString(c.MAC),
	}, encSep)
}

// ParseCapability reverses Capability.Encode. It does not verify the MAC.
func ParseCapability(s string) (Capability, error) {
	parts := strings.Split(s, encSep)
	if len(parts) != 6 {
		return Capability{}, ErrMalformed
	}
	user, err := decField(parts[0])
	if err != nil {
		return Capability{}, err
	}
	app, err := decField(parts[1])
	if err != nil {
		return Capability{}, err
	}
	priv, err := strconv.Atoi(parts[2])
	if err != nil || priv < 0 || priv > int(Steer) {
		return Capability{}, ErrMalformed
	}
	server, err := decField(parts[3])
	if err != nil {
		return Capability{}, err
	}
	expiry, err := strconv.ParseInt(parts[4], 10, 64)
	if err != nil {
		return Capability{}, ErrMalformed
	}
	mac, err := base64.RawURLEncoding.DecodeString(parts[5])
	if err != nil {
		return Capability{}, ErrMalformed
	}
	return Capability{User: user, App: app, Priv: Privilege(priv), Server: server, Expiry: expiry, MAC: mac}, nil
}
