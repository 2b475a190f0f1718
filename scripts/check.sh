#!/usr/bin/env bash
# Repo-wide check: format, vet, build, race-clean tests, bench smoke.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...

# One federation builder: internal/deploy is the only non-test code that
# builds a substrate, and the retired harness builders stay gone.
stray=$(grep -rl --include='*.go' --exclude='*_test.go' --exclude-dir=.bench_build 'core\.New(' . \
    | grep -v '^\./internal/deploy/' || true)
if [ -n "$stray" ]; then
    echo "core.New outside internal/deploy in:" >&2
    echo "$stray" >&2
    exit 1
fi
retired=$(grep -rlwE --include='*.go' --exclude-dir=.bench_build 'FederationConfig|newTestNet' . || true)
if [ -n "$retired" ]; then
    echo "retired federation builder names in:" >&2
    echo "$retired" >&2
    exit 1
fi

go test -race ./...

# Documentation: every intra-repo markdown link must resolve.
go run ./scripts/doclinkcheck

# API contract: API.md's endpoint headings and error-code registry must
# match the route table and code registry in internal/server.
go run ./scripts/apidrift

# Wire contract: WIRE.md's frame-type, flag, status, error-code and
# message-kind tables must match the constants in internal/wire and
# internal/orb.
go run ./scripts/wiredrift

# Observability smoke: boot a domain, drive a sampled command, fetch its
# trace back and scrape /metrics as Prometheus text.
go run ./scripts/metricssmoke

# Chaos smoke: the fault-injection paths (mid-run domain kill/restart,
# partition + heal, breaker fast-fail) rerun uncached so flakiness in the
# failure detector surfaces here, not in CI roulette. P1 rides along: a
# listing under partition must return within its context budget with
# unavailable-marked entries — never hang. S2 rides along too: the
# streaming edge's request-reduction and shed shapes involve real timing,
# so they rerun uncached with the chaos batch. R2 (kill a durable domain,
# recover from WAL + snapshots) joins for the same reason: crash/restart
# timing and fsync interleavings deserve an uncached race-enabled pass.
# -p 1 keeps the packages sequential: S2's CPU-shape and R2's recovery
# budget are measured, and a concurrently running chaos package skews
# them.
go test -race -p 1 -count=1 -run 'Chaos|R1|R2|P1|S2' ./internal/core/ ./internal/experiments/

# Directory smoke: the federation directory is the cache plus the
# level-1 fan-out. The cache unit tests (TTL jitter, single-flight
# states, eager invalidation with its degraded fallback) and the chaos
# test (concurrent listings while applications churn and a peer dies and
# is reborn) rerun uncached under the race detector; ten rounds give the
# flights and breaker transitions room to interleave.
go test -race -count=10 -run 'TestDirCache|TestDirectoryChaosConcurrentListings' ./internal/core/

# Collaboration smoke: experiment C1 (replicated group log under churn
# and partition, latecomer replay) plus the CRDT merge property tests and
# the churn hammer rerun uncached under the race detector — the hammer
# exists precisely for -race.
go test -race -count=1 -run 'TestC1CollabChaos|TestCollabMergeConvergesUnderAnyOrder|TestChurnHammer|TestCollabAntiResurrectionGuard|TestCollabEvictionSplicesFromJournal|TestCollabSnapshotRestoreRoundtrip' \
    ./internal/experiments/ ./internal/collab/

# Relay gate: a host relays application updates only to domains whose
# converged membership fold has a present member, while replicated ops
# reach every subscribed domain. Structural (exact relay delivery counts
# over a four-domain netsim federation), so twenty uncached race-enabled
# rounds must all pass; the presence-count property test rides along.
go test -race -count=20 -run 'TestRelayGateFollowsMembership|TestCollabPresenceCountsMatchFold' \
    ./internal/core/ ./internal/collab/

# Peer table: one table owns membership and the per-peer call gate. The
# gate lifecycle, the names-equal-peers invariant (relay failures for an
# undiscovered peer, discovery drops) and probe dedup across concurrent
# heartbeat rounds rerun twenty times uncached under the race detector.
go test -race -count=20 -run 'TestPeerTable|TestPeerHealthNamesEqualPeers|TestConcurrentRoundsProbeOnce' ./internal/core/

# Discovery: the trader and the application id are the only ways to find
# a server or an application's CorbaProxy. The trader's lease and query
# tests, the proxy servant's register/withdraw lifecycle and the events
# long poll (its second push may land after the first drain) rerun twenty
# times uncached under the race detector.
go test -race -count=20 -run 'TestTrader|TestProxyServant|TestSessionEventsLongPoll' \
    ./internal/orb/ ./internal/core/ ./internal/server/

# Session table: one lock over one map, plus the bounded delivery
# queues. The concurrent-create and overflow/resume race tests exist for
# -race, so the package reruns twenty times uncached.
go test -race -count=20 ./internal/session/

# Codec smoke: the ORB's process-wide gob engine caches — the
# many-goroutine hammer, the differential fuzz seeds, byte identity and
# the cap test — rerun uncached under the race detector; the hammer
# exists for -race, and ten rounds give interleavings a chance to vary.
go test -race -count=10 -run 'TestCodecHammer|FuzzUnmarshal|TestCodecByteIdentity|TestCodecCacheBound' \
    ./internal/orb/

# Durability smoke: the storage fuzz/property pair (WAL crash-point fuzz,
# archive replay determinism) and the server kill-recover path rerun
# uncached under the race detector.
go test -race -count=1 -run 'TestWALCrashPointFuzz|TestReplayDeterminismProperty|TestPersist' \
    ./internal/storage/ ./internal/archive/ ./internal/server/

# Experiments, whole package, uncached: S2's CPU row and O1's hop-sum
# gate once failed only when the package's experiments ran one after
# another in one process, so three uncached package runs must all pass.
go test -count=3 ./internal/experiments/

# Bench smoke: one iteration of every benchmark, so the bench code itself
# cannot rot between full harness runs.
go test -run '^$' -bench . -benchtime 1x ./...
