package appproto

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"discover/internal/app"
	"discover/internal/wire"
)

// DialOption configures Dial.
type DialOption func(*Session)

// WithUpdateEvery emits a periodic update every n interaction phases
// (default 1).
func WithUpdateEvery(n int) DialOption {
	return func(s *Session) {
		if n > 0 {
			s.updateEvery = n
		}
	}
}

// WithDialFunc substitutes the TCP dialer (e.g. a netsim shaped dialer).
func WithDialFunc(dial func(ctx context.Context, network, addr string) (net.Conn, error)) DialOption {
	return func(s *Session) { s.dial = dial }
}

// WithPhaseDelay inserts a pause after each compute phase, modelling
// applications whose compute phases take wall-clock time.
func WithPhaseDelay(d time.Duration) DialOption {
	return func(s *Session) { s.phaseDelay = d }
}

// Session is the application-side protocol driver: it owns the three
// channels and alternates the runtime between compute and interaction
// phases.
type Session struct {
	rt          *app.Runtime
	appID       string
	main        *wire.Conn
	command     *wire.Conn
	response    *wire.Conn
	updateEvery int
	phaseDelay  time.Duration
	phase       uint64
	dial        func(ctx context.Context, network, addr string) (net.Conn, error)
}

// Dial connects a runtime to a server's daemon address, performing the
// three-channel registration handshake.
func Dial(ctx context.Context, addr string, rt *app.Runtime, opts ...DialOption) (*Session, error) {
	s := &Session{rt: rt, updateEvery: 1}
	var d net.Dialer
	s.dial = d.DialContext
	for _, o := range opts {
		o(s)
	}

	reg := Registration{
		Name:   rt.Name(),
		Kind:   rt.Kind(),
		Owner:  rt.Owner(),
		Users:  rt.Users(),
		Params: rt.Params().Snapshot(),
	}
	payload, err := encodeRegistration(reg)
	if err != nil {
		return nil, err
	}

	// Main channel and registration.
	mainConn, err := s.dialChannel(ctx, addr)
	if err != nil {
		return nil, err
	}
	hello := &wire.Message{Kind: wire.KindRegister, Op: roleMain, Data: payload}
	if err := mainConn.Send(hello); err != nil {
		mainConn.Close()
		return nil, err
	}
	ack, err := mainConn.Recv()
	if err != nil {
		mainConn.Close()
		return nil, err
	}
	if ack.Kind != wire.KindRegisterAck {
		mainConn.Close()
		return nil, fmt.Errorf("appproto: registration rejected: %s", ack.Text)
	}
	s.appID = ack.App
	session, _ := ack.Get("session")
	s.main = mainConn

	// Command and Response channels.
	if s.command, err = s.attach(ctx, addr, roleCommand, session); err != nil {
		s.Close()
		return nil, err
	}
	if s.response, err = s.attach(ctx, addr, roleResponse, session); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func (s *Session) dialChannel(ctx context.Context, addr string) (*wire.Conn, error) {
	raw, err := s.dial(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return wire.NewConn(raw), nil
}

func (s *Session) attach(ctx context.Context, addr, role, session string) (*wire.Conn, error) {
	wc, err := s.dialChannel(ctx, addr)
	if err != nil {
		return nil, err
	}
	hello := &wire.Message{Kind: wire.KindRegister, Op: role, App: s.appID}
	hello.Set("session", session)
	if err := wc.Send(hello); err != nil {
		wc.Close()
		return nil, err
	}
	ack, err := wc.Recv()
	if err != nil {
		wc.Close()
		return nil, err
	}
	if ack.Kind != wire.KindRegisterAck {
		wc.Close()
		return nil, fmt.Errorf("appproto: %s channel rejected: %s", role, ack.Text)
	}
	return wc, nil
}

// AppID returns the server-assigned application identifier.
func (s *Session) AppID() string { return s.appID }

// Runtime returns the runtime this session drives.
func (s *Session) Runtime() *app.Runtime { return s.rt }

// Close closes all channels.
func (s *Session) Close() error {
	var firstErr error
	for _, c := range []*wire.Conn{s.main, s.command, s.response} {
		if c != nil {
			if err := c.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	return firstErr
}

// RunPhase executes one full compute+interaction cycle: compute, announce
// the interaction phase, serve every buffered command, and emit the
// periodic update when due. It returns the number of commands served.
func (s *Session) RunPhase() (int, error) {
	s.rt.ComputePhase()
	if s.phaseDelay > 0 {
		time.Sleep(s.phaseDelay)
	}
	s.phase++
	if err := s.main.Send(&wire.Message{Kind: wire.KindPhase, Op: OpInteraction, App: s.appID, Seq: s.phase}); err != nil {
		return 0, err
	}
	s.rt.InteractionPhase()

	served := 0
	for {
		m, err := s.command.Recv()
		if err != nil {
			return served, err
		}
		if m.Kind == wire.KindPhase && m.Op == OpDrained {
			if m.Seq >= s.phase {
				break
			}
			continue // stale marker from a phase whose commands we just read
		}
		if m.Kind != wire.KindCommand {
			continue
		}
		resp := s.rt.HandleCommand(m)
		if err := s.response.Send(resp); err != nil {
			return served, err
		}
		served++
	}

	if s.phase%uint64(s.updateEvery) == 0 {
		if err := s.main.Send(s.rt.UpdateMessage(s.appID)); err != nil {
			return served, err
		}
	}
	if err := s.main.Send(&wire.Message{Kind: wire.KindPhase, Op: OpCompute, App: s.appID, Seq: s.phase}); err != nil {
		return served, err
	}
	return served, nil
}

// Run cycles phases until ctx is done or a channel fails, then sends an
// orderly Bye.
func (s *Session) Run(ctx context.Context) error {
	for {
		select {
		case <-ctx.Done():
			s.main.Send(&wire.Message{Kind: wire.KindBye, App: s.appID})
			return ctx.Err()
		default:
		}
		if _, err := s.RunPhase(); err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
	}
}
