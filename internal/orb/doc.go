// Package orb is a from-scratch object request broker: the repository's
// stand-in for CORBA/IIOP.
//
// The DISCOVER middleware substrate builds on CORBA for peer-to-peer
// server connectivity and uses the CORBA Trader service for server
// discovery; an application's id names its host server, so no naming
// service is needed to reach it. No CORBA ORB is available here (and
// the paper itself treats the ORB as a commodity it merely evaluates), so
// this package implements the part of the object model DISCOVER needs:
//
//   - object references (ObjRef = endpoint address + object key),
//   - synchronous remote method invocation with request multiplexing over
//     pooled connections (GIOP-like framed request/reply),
//   - oneway operations (fire-and-forget, used by the push relay),
//   - servant registration and dispatch, and
//   - a Trader service (service offers with property lists, leases and a
//     constraint query language), the paper's minimal trader.
//
// Argument marshalling uses encoding/gob, mirroring the prototype's use of
// Java object serialization over IIOP. Marshal and Unmarshal cache gob
// engines per process: idle encoders by Go type and idle decoders by
// descriptor prefix, each already past the type's descriptors, encode and
// decode the value segment alone with the same bytes a new encoder writes.
// Only static prefixes (wire.StaticGobPrefix) are cached, with 256 keys
// per cache, prefixes up to 4 KiB, values up to 16 KiB and 4 idle engines
// per key; anything else, and anything past the caps, takes a new engine.
//
// # Wire protocol
//
// Every peer speaks one protocol; WIRE.md at the repository root is its
// normative spec. A client opens each connection by writing the 4-byte
// preface "DWP2" and then sends varint-headed frames directly — no
// negotiation round trip. A server that reads any other preface closes
// the connection before dispatching anything, so a peer speaking some
// other protocol sees COMM_FAILURE. Frames carry
//
//   - interned targets and type descriptors ((key, method) pairs and gob
//     descriptor prefixes ship once per connection, then travel as ids),
//   - multiplexed pipelining (each request is a stream; reply bodies over
//     wire.V2ChunkSize stream as CHUNK frames that interleave with other
//     streams, paced by per-stream CREDIT flow control, so one bulk reply
//     does not head-of-line-block concurrent invocations), and
//   - opt-in flate compression for bulk exchanges (WithBulk).
//
// The server runs each two-way request on its own goroutine and a
// connection's oneway requests one at a time, in arrival order. Stats
// reports request, reply and byte totals and descriptor-cache defs/hits.
//
// # Telemetry
//
// When a sampled trace rides the invocation context
// (internal/telemetry), its id crosses the wire as an optional frame
// trailer (wire.TraceMeta); the servant side measures dispatch time,
// records the servant span locally, and echoes the trailer so the caller
// can split servant time out of its round-trip measurement. Invocation,
// servant-dispatch and oneway latencies feed per-operation histograms
// regardless of sampling.
package orb
