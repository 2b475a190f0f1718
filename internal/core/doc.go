// Package core implements the paper's primary contribution: the
// middleware substrate for peer-to-peer integration of DISCOVER servers.
//
// Each server's substrate exposes the two interface levels of Section 3
// over the mini-ORB (internal/orb):
//
//   - DiscoverCorbaServer (level one, object key "DiscoverServer"):
//     authenticate peer-asserted users, list active applications and
//     logged-in users, answer level-two privilege queries, and manage
//     relay subscriptions.
//
//   - CorbaProxy (level two, one servant per local application, object key
//     "CorbaProxy/<appID>" at the ORB address of the server the application
//     id names): forward commands, relay lock requests, fan collaboration
//     messages out, and serve the replicated collaboration log's
//     anti-entropy exchange.
//
// A Control servant carries the fourth inter-server channel: error and
// system events plus pushed group traffic (the Salamander-style
// notification service of §5.1).
//
// Server discovery uses the trader service: every substrate exports a
// service offer of type DISCOVER with its name and endpoint in the
// property list, refreshes the offer's lease while alive, and queries the
// trader to find peers. An application's id (serverName#n) names its host
// server, so the peer table alone resolves where its CorbaProxy lives;
// there is no separate naming service.
//
// # Update propagation
//
// Of the two designs of §5.2.3, the substrate implements push: a
// subscribing server asks the host once, and the host's per-peer relay
// sender drains up to DefaultRelayBatch queued messages per wakeup into a
// single oneway deliverBatch invocation on the subscriber's Control
// servant. Updates cross the WAN once per remote server that has a member
// in the application's group, and fan out locally. The prototype's
// polling design survives only as the losing arm of experiment A3
// (internal/experiments).
//
// # Failure handling
//
// One peer table holds every discovered peer. Trader discovery alone adds
// and drops its rows; each row carries a call gate fed by regular
// invocation outcomes and a periodic heartbeat. DefaultDownAfter
// consecutive failures open the gate, so operations fail fast with
// ErrPeerDown instead of burning the RPC timeout, and a recovery probe
// closes it again. See DESIGN.md §4d.
//
// # Telemetry
//
// Request-path substrate methods take a context.Context; a sampled
// request's active trace (internal/telemetry) rides it into the ORB,
// crosses the wire as a trailer, and comes back with the remote servant's
// dispatch time split out. Relay senders feed per-peer flush and
// queue-wait latency histograms. See DESIGN.md §4e.
package core
