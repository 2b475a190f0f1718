// Package wire defines the message envelope, codecs and framing shared
// by every DISCOVER communication channel. WIRE.md at the repository root
// is the normative byte-level specification of everything here;
// scripts/wiredrift cross-checks its tables against this package's
// constants.
//
// The original DISCOVER prototype shipped serialized Java objects and let
// clients discriminate message types with reflection. Here the envelope is
// an explicit struct with a Kind tag, and the application and client
// channels encode it with BinaryCodec, the analogue of the paper's "more
// optimized, custom protocol using TCP sockets" (compact, hand-rolled
// field encoding). Experiment A2 (internal/experiments) keeps a
// self-describing gob encoding, the Java-serialization analogue, as its
// losing arm.
//
// # Two framings for two channels
//
// The application↔server and client↔server channels frame a stream with
// a fixed 4-byte big-endian length prefix (WriteFrame, ReadFrame, Conn)
// and carry one complete message per frame.
//
// The ORB's peer-to-peer protocol (internal/orb speaks it; this package
// supplies the mechanics) is built for many small gob-encoded calls in
// flight at once:
//
//   - Varint-packed frame headers carrying an explicit frame type and a
//     stream id, so frames from concurrent requests interleave on one
//     connection (AppendV2Header, ParseV2Header, ReadV2Frame).
//   - Descriptor interning: each side splits gob payloads at the
//     descriptor/value boundary (SplitGobValue), ships each distinct
//     descriptor prefix once as a DEF, and thereafter sends only a
//     varint id plus the value bytes (InternTable, InternDefs).
//   - Streamed replies: a reply body larger than V2ChunkSize leaves as
//     CHUNK frames terminated by an END frame, with per-stream
//     flow-control credit (V2StreamWindow) so a bulk reply cannot
//     head-of-line-block small concurrent invocations.
//   - Optional per-frame compression for bulk payloads (CompressPayload,
//     DecompressPayload), flagged by V2FlagCompressed.
//   - An optional TraceMeta trailer ("DTRC") after REQUEST, REPLY and END
//     payloads; see AppendTraceMeta and ParseTraceMeta.
package wire

import (
	"fmt"
	"sort"
	"strconv"
)

// Kind discriminates messages the way DISCOVER clients used Java
// reflection: Response, Error and Update are the three client-visible
// types from the paper; the rest serve registration, steering, locking,
// collaboration and the inter-server control channel.
type Kind uint8

// Message kinds. The zero value is invalid so that a forgotten Kind is
// caught by validation rather than silently treated as a real message.
const (
	KindInvalid Kind = iota

	// Application <-> server (Main channel).
	KindRegister    // application registration request
	KindRegisterAck // server reply carrying the assigned application id
	KindUpdate      // periodic application status/metric update
	KindPhase       // application phase transition (compute/interaction)
	KindBye         // orderly shutdown of a channel

	// Client/server <-> application (Command and Response channels).
	KindCommand  // steering or view request
	KindResponse // successful response to a command
	KindError    // failed response

	// Security.
	KindAuth      // authentication request (level one or level two)
	KindAuthReply // authentication reply carrying a token or denial

	// Concurrency control.
	KindLockRequest
	KindLockReply

	// Collaboration.
	KindChat       // chat line for the application's collaboration group
	KindWhiteboard // whiteboard stroke
	KindViewShare  // explicitly shared view from one client to its group
	KindJoin       // client joined a group or sub-group
	KindLeave      // client left a group or sub-group

	// Inter-server control channel (Salamander-style notification).
	KindEvent

	kindSentinel // keep last
)

var kindNames = map[Kind]string{
	KindInvalid:     "invalid",
	KindRegister:    "register",
	KindRegisterAck: "register-ack",
	KindUpdate:      "update",
	KindPhase:       "phase",
	KindBye:         "bye",
	KindCommand:     "command",
	KindResponse:    "response",
	KindError:       "error",
	KindAuth:        "auth",
	KindAuthReply:   "auth-reply",
	KindLockRequest: "lock-request",
	KindLockReply:   "lock-reply",
	KindChat:        "chat",
	KindWhiteboard:  "whiteboard",
	KindViewShare:   "view-share",
	KindJoin:        "join",
	KindLeave:       "leave",
	KindEvent:       "event",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Valid reports whether k names a defined message kind other than
// KindInvalid.
func (k Kind) Valid() bool {
	return k > KindInvalid && k < kindSentinel
}

// Param is one ordered key/value pair in a message. Parameters are a slice
// rather than a map so that encodings are deterministic and order is
// preserved on the wire.
type Param struct {
	Key   string
	Value string
}

// Message is the single envelope used on every DISCOVER channel: between
// applications and servers, between clients and servers, and between peer
// servers. Unused fields are left at their zero values and cost little on
// the wire.
type Message struct {
	Kind   Kind
	App    string  // globally unique application id (host-recoverable)
	Client string  // client id, or server name on inter-server channels
	Seq    uint64  // per-sender sequence number
	Op     string  // command/method/event name
	Status int32   // response status; 0 means OK
	Text   string  // human-readable text, chat line or error message
	Params []Param // ordered parameters
	Data   []byte  // opaque payload (views, strokes, snapshots)
}

// Response statuses.
const (
	StatusOK           int32 = 0
	StatusDenied       int32 = 1 // authentication or privilege failure
	StatusNotFound     int32 = 2 // unknown application, client or op
	StatusLocked       int32 = 3 // steering lock held by another client
	StatusUnavailable  int32 = 4 // application or peer not reachable
	StatusBadRequest   int32 = 5 // malformed or out-of-range request
	StatusOverloaded   int32 = 6 // buffers full, request dropped
	StatusInternal     int32 = 7 // unexpected server-side failure
	statusSentinelWire int32 = 8
)

// StatusText returns a short description of a response status.
func StatusText(s int32) string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDenied:
		return "denied"
	case StatusNotFound:
		return "not found"
	case StatusLocked:
		return "locked"
	case StatusUnavailable:
		return "unavailable"
	case StatusBadRequest:
		return "bad request"
	case StatusOverloaded:
		return "overloaded"
	case StatusInternal:
		return "internal error"
	default:
		return fmt.Sprintf("status(%d)", s)
	}
}

// Get returns the value of the first parameter named key and whether it
// was present.
func (m *Message) Get(key string) (string, bool) {
	for _, p := range m.Params {
		if p.Key == key {
			return p.Value, true
		}
	}
	return "", false
}

// GetFloat returns the parameter named key parsed as a float64.
func (m *Message) GetFloat(key string) (float64, bool) {
	s, ok := m.Get(key)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// GetInt returns the parameter named key parsed as an int64.
func (m *Message) GetInt(key string) (int64, bool) {
	s, ok := m.Get(key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Set appends or replaces the parameter named key.
func (m *Message) Set(key, value string) {
	for i, p := range m.Params {
		if p.Key == key {
			m.Params[i].Value = value
			return
		}
	}
	m.Params = append(m.Params, Param{Key: key, Value: value})
}

// SetFloat stores a float64 parameter with full round-trip precision.
func (m *Message) SetFloat(key string, v float64) {
	m.Set(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// SetInt stores an int64 parameter.
func (m *Message) SetInt(key string, v int64) {
	m.Set(key, strconv.FormatInt(v, 10))
}

// ParamMap returns the parameters as a map. Later duplicates win, matching
// Set semantics.
func (m *Message) ParamMap() map[string]string {
	out := make(map[string]string, len(m.Params))
	for _, p := range m.Params {
		out[p.Key] = p.Value
	}
	return out
}

// SortParams orders parameters by key; useful before comparing messages in
// tests and before hashing.
func (m *Message) SortParams() {
	sort.Slice(m.Params, func(i, j int) bool { return m.Params[i].Key < m.Params[j].Key })
}

// Clone returns a deep copy of the message.
func (m *Message) Clone() *Message {
	c := *m
	if m.Params != nil {
		c.Params = make([]Param, len(m.Params))
		copy(c.Params, m.Params)
	}
	if m.Data != nil {
		c.Data = make([]byte, len(m.Data))
		copy(c.Data, m.Data)
	}
	return &c
}

// Equal reports whether two messages are field-for-field identical,
// including parameter order.
func (m *Message) Equal(o *Message) bool {
	if m == nil || o == nil {
		return m == o
	}
	if m.Kind != o.Kind || m.App != o.App || m.Client != o.Client ||
		m.Seq != o.Seq || m.Op != o.Op || m.Status != o.Status || m.Text != o.Text {
		return false
	}
	if len(m.Params) != len(o.Params) || len(m.Data) != len(o.Data) {
		return false
	}
	for i := range m.Params {
		if m.Params[i] != o.Params[i] {
			return false
		}
	}
	for i := range m.Data {
		if m.Data[i] != o.Data[i] {
			return false
		}
	}
	return true
}

// String renders a compact single-line description for logs.
func (m *Message) String() string {
	return fmt.Sprintf("%s app=%q client=%q seq=%d op=%q status=%d params=%d data=%dB",
		m.Kind, m.App, m.Client, m.Seq, m.Op, m.Status, len(m.Params), len(m.Data))
}

// ApproxSize estimates the message's encoded size in bytes, for resource
// accounting without paying for an actual encode.
func (m *Message) ApproxSize() int {
	n := 16 + len(m.App) + len(m.Client) + len(m.Op) + len(m.Text) + len(m.Data)
	for _, p := range m.Params {
		n += len(p.Key) + len(p.Value) + 2
	}
	return n
}

// NewCommand builds a steering/view command message.
func NewCommand(app, client, op string, params ...Param) *Message {
	return &Message{Kind: KindCommand, App: app, Client: client, Op: op, Params: params}
}

// NewResponse builds a successful response to req, preserving its
// addressing and sequence number.
func NewResponse(req *Message, text string) *Message {
	return &Message{Kind: KindResponse, App: req.App, Client: req.Client,
		Seq: req.Seq, Op: req.Op, Status: StatusOK, Text: text}
}

// NewError builds a failed response to req.
func NewError(req *Message, status int32, text string) *Message {
	return &Message{Kind: KindError, App: req.App, Client: req.Client,
		Seq: req.Seq, Op: req.Op, Status: status, Text: text}
}

// NewUpdate builds a periodic application update.
func NewUpdate(app string, seq uint64, params ...Param) *Message {
	return &Message{Kind: KindUpdate, App: app, Seq: seq, Params: params}
}

// NewEvent builds an inter-server control-channel event.
func NewEvent(fromServer, name, text string) *Message {
	return &Message{Kind: KindEvent, Client: fromServer, Op: name, Text: text}
}
