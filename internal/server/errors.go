package server

import (
	"errors"
	"net/http"
	"slices"

	"discover/internal/auth"
	"discover/internal/orb"
)

// The portal edge speaks one error contract: every non-2xx response body
// is {"error":{"code","message","retry_after_ms"}} where code is one of
// the typed constants below (the registry API.md documents). Handlers
// map Go errors to codes with writeErr; portal.Client decodes the
// envelope back into errors.Is-able sentinels.

// ErrCode is a stable, machine-readable API error code.
type ErrCode string

// The error-code registry. Codes are append-only: removing or renaming
// one is a breaking API change (see API.md for the versioning policy).
const (
	// CodeBadRequest: the request body or parameters could not be parsed.
	CodeBadRequest ErrCode = "bad_request"
	// CodeUnauthorized: missing or invalid credentials (login failures,
	// forged or expired tokens).
	CodeUnauthorized ErrCode = "unauthorized"
	// CodeSessionNotFound: the client-id does not name a live session
	// (never created, logged out, or reaped by the idle janitor).
	CodeSessionNotFound ErrCode = "session_not_found"
	// CodeForbidden: authenticated but not allowed (privilege too low,
	// no access to the application).
	CodeForbidden ErrCode = "forbidden"
	// CodeAppNotFound: the application id does not resolve, here or in
	// the federation.
	CodeAppNotFound ErrCode = "app_not_found"
	// CodeNotConnected: the operation needs a connected application.
	CodeNotConnected ErrCode = "not_connected"
	// CodeLockHeld: the steering lock is required and held by another
	// client.
	CodeLockHeld ErrCode = "lock_held"
	// CodeRateLimited: admission control shed the request (per-user or
	// per-session token bucket empty); retry after retry_after_ms.
	CodeRateLimited ErrCode = "rate_limited"
	// CodeOverloaded: the global in-flight limiter shed the request;
	// retry after retry_after_ms.
	CodeOverloaded ErrCode = "overloaded"
	// CodeShuttingDown: the server is draining connections for shutdown.
	CodeShuttingDown ErrCode = "shutting_down"
	// CodePeerDown: the remote application's host server is unreachable
	// (failure detector open).
	CodePeerDown ErrCode = "peer_down"
	// CodeNotFound: a resource (trace, record table) does not exist.
	CodeNotFound ErrCode = "not_found"
	// CodeCollabDisabled: the session disabled collaboration, so chat and
	// whiteboard mutations are rejected (explicit view shares still pass).
	CodeCollabDisabled ErrCode = "collab_disabled"
	// CodeGroupNotFound: the session's application has no live
	// collaboration group (the application exited).
	CodeGroupNotFound ErrCode = "group_not_found"
	// CodeBadWatermark: a whiteboard replay watermark is malformed or
	// ahead of the log's head.
	CodeBadWatermark ErrCode = "bad_watermark"
	// CodeInternal: unclassified server-side failure.
	CodeInternal ErrCode = "internal"
)

// httpStatus maps each code to its transport status.
func (c ErrCode) httpStatus() int {
	switch c {
	case CodeBadRequest:
		return http.StatusBadRequest
	case CodeUnauthorized, CodeSessionNotFound:
		return http.StatusUnauthorized
	case CodeForbidden:
		return http.StatusForbidden
	case CodeAppNotFound, CodeNotConnected, CodeNotFound:
		return http.StatusNotFound
	case CodeLockHeld, CodeCollabDisabled:
		return http.StatusConflict
	case CodeGroupNotFound:
		return http.StatusNotFound
	case CodeBadWatermark:
		return http.StatusBadRequest
	case CodeRateLimited, CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeShuttingDown, CodePeerDown:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// ErrorCodes lists every registered code (scripts/apidrift cross-checks
// this set against API.md's registry).
func ErrorCodes() []ErrCode {
	return []ErrCode{
		CodeBadRequest, CodeUnauthorized, CodeSessionNotFound, CodeForbidden,
		CodeAppNotFound, CodeNotConnected, CodeLockHeld, CodeRateLimited,
		CodeOverloaded, CodeShuttingDown, CodePeerDown,
		CodeNotFound, CodeCollabDisabled, CodeGroupNotFound, CodeBadWatermark,
		CodeInternal,
	}
}

// Collaboration sentinels: coded errors the ops layer returns and the
// HTTP edge maps straight into the envelope.
var (
	// ErrCollabDisabled rejects chat/whiteboard mutations from a session
	// that switched collaboration off.
	ErrCollabDisabled error = &codedError{
		msg: "server: collaboration disabled for this session", code: CodeCollabDisabled,
	}
	// ErrGroupNotFound reports a vanished collaboration group (the
	// application exited while the session was still attached).
	ErrGroupNotFound error = &codedError{
		msg: "server: collaboration group not found", code: CodeGroupNotFound,
	}
	// ErrBadWatermark reports a whiteboard replay watermark that is
	// malformed or ahead of the log head.
	ErrBadWatermark error = &codedError{
		msg: "server: whiteboard watermark out of range", code: CodeBadWatermark,
	}
)

// Coder is implemented by errors that carry their own API error code
// (e.g. the substrate's ErrPeerDown). writeErr honors it anywhere in the
// wrap chain, so packages below the HTTP edge classify their failures
// without this package enumerating them.
type Coder interface{ ErrorCode() string }

// codedError is a sentinel error with an attached API code.
type codedError struct {
	msg  string
	code ErrCode
}

func (e *codedError) Error() string     { return e.msg }
func (e *codedError) ErrorCode() string { return string(e.code) }

// CodeOf classifies err into the registry. A refusal a peer classified
// before it crossed the ORB (an *orb.RemoteError carrying a registry
// code) keeps that code; any other remote error is classified like a
// local one.
func CodeOf(err error) ErrCode {
	var c Coder
	if errors.As(err, &c) {
		return ErrCode(c.ErrorCode())
	}
	var re *orb.RemoteError
	if errors.As(err, &re) && slices.Contains(ErrorCodes(), ErrCode(re.Code)) {
		return ErrCode(re.Code)
	}
	switch {
	case errors.Is(err, auth.ErrBadSecret), errors.Is(err, auth.ErrUnknownUser),
		errors.Is(err, auth.ErrBadToken), errors.Is(err, auth.ErrExpired),
		errors.Is(err, auth.ErrNoAccess), errors.Is(err, ErrDenied):
		return CodeForbidden
	case errors.Is(err, ErrUnknownApp):
		return CodeAppNotFound
	case errors.Is(err, ErrNotConnected):
		return CodeNotConnected
	case errors.Is(err, ErrNeedLock):
		return CodeLockHeld
	default:
		return CodeInternal
	}
}
