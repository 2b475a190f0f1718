package core

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"discover/internal/orb"
	"discover/internal/telemetry"
)

// DefaultFanoutWorkers bounds how many peers one scatter-gather round
// talks to concurrently (Substrate.SetFanoutWorkers varies it).
const DefaultFanoutWorkers = 16

// fanoutMergeReserve is the slice of the caller's deadline kept back from
// per-peer invocations so the round can merge results (and mark
// stragglers unavailable) after its slowest call completes or times out.
const fanoutMergeReserve = 250 * time.Millisecond

// fanResult is one item's outcome from a scatter-gather round, in input
// order.
type fanResult[T any] struct {
	val T
	err error
}

// fanOut is the scatter-gather engine behind the federation's one-to-all
// operations (directory listings, user queries, discovery warm-up): it
// runs fn once per item on a bounded worker pool, so a round costs
// ~max(per-peer RTT) instead of the sum, and a single slow peer cannot
// serialize the rest. The per-item context is carved from ctx's budget
// (see orb.CarveBudget); fn is expected to go through invokePeer, which
// adds the breaker gate and the RPC timeout.
//
// Together with the directory cache it is the federation directory
// (DESIGN §4f): RemoteApps/RemoteUsers("") ask each peer's level-1
// interface, cache misses only; per-app operations (commands, locks,
// collab) are point-to-point and never fanned out.
//
// Generic over the item so callers can thread per-peer plans through
// without a side table; results come back in input order. It is a
// package-level function because Go methods cannot be generic.
func fanOut[I, T any](s *Substrate, ctx context.Context, op string, items []I,
	fn func(context.Context, I) (T, error)) []fanResult[T] {
	if len(items) == 0 {
		return nil
	}
	workers := int(s.fanWorkers.Load())
	if workers <= 0 {
		workers = DefaultFanoutWorkers
	}
	if workers > len(items) {
		workers = len(items)
	}
	cctx, cancel := orb.CarveBudget(ctx, fanoutMergeReserve)
	defer cancel()

	out := make([]fanResult[T], len(items))
	t0 := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				v, err := fn(cctx, items[i])
				out[i] = fanResult[T]{val: v, err: err}
			}
		}()
	}
	wg.Wait()
	telemetry.GetHistogram("discover_fanout_seconds", "op", op).Observe(time.Since(t0))
	s.fanRounds.Add(1)
	s.fanCalls.Add(uint64(len(items)))
	return out
}

// SetFanoutWorkers adjusts the scatter-gather concurrency bound at
// runtime (experiments compare sequential — one worker — against
// parallel rounds without rebuilding the federation). n <= 0 restores
// the default.
func (s *Substrate) SetFanoutWorkers(n int) {
	if n <= 0 {
		n = DefaultFanoutWorkers
	}
	s.fanWorkers.Store(int64(n))
}
