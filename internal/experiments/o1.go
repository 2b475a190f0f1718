package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"discover/internal/netsim"
	"discover/internal/server"
	"discover/internal/telemetry"
)

// RunO1 validates the observability layer end to end: one cross-domain
// steering request is traced from the portal edge through the substrate's
// ORB invocation to the remote servant and back, and the per-hop span
// accounting must reproduce the latency the client observed. This is the
// decomposition the paper's §6.1 tables cannot provide — they report only
// end-to-end access times — so O1 both exercises the machinery and checks
// that no hop of the request path escapes measurement.
func RunO1(rtt time.Duration) (Result, error) {
	if rtt <= 0 {
		rtt = 40 * time.Millisecond
	}
	res := Result{ID: "O1", Title: "Distributed trace of a cross-domain steer (observability)"}

	// Isolate the process-wide tracer (but leave the histogram registry
	// accumulating — the harness snapshots it at the end of a full run),
	// then sample every portal request so the steer below is traced
	// deterministically.
	telemetry.Default().Reset()
	telemetry.Default().SetSampleEvery(1)
	defer telemetry.Default().SetSampleEvery(0)

	fed, err := NewFederation(func(t *netsim.Topology) { t.SetRTT("east", "west", rtt) }, nil, 0,
		Place("host", "east"), Place("edge", "west"))
	if err != nil {
		return res, err
	}
	defer fed.Close()
	host, edge := fed.Domains[0], fed.Domains[1]

	as, err := AttachApp(host, "traced-app", 0)
	if err != nil {
		return res, err
	}
	defer as.Close()

	// Alice logs in at the edge domain and steers the host's application.
	sess, err := LoginLocal(edge, "alice")
	if err != nil {
		return res, err
	}
	if _, err := edge.Server.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
		return res, err
	}
	if granted, holder, err := edge.Server.LockOp(context.Background(), sess, true); err != nil || !granted {
		return res, fmt.Errorf("lock not granted (holder %q): %v", holder, err)
	}

	client := &http.Client{}
	post := func(op string, params map[string]string) (server.CommandResponse, time.Duration, error) {
		body, _ := json.Marshal(server.CommandRequest{
			ClientID: sess.ClientID, Op: op, Params: params,
		})
		t0 := time.Now()
		resp, err := client.Post(edge.BaseURL()+"/api/v1/command", "application/json", bytes.NewReader(body))
		elapsed := time.Since(t0)
		if err != nil {
			return server.CommandResponse{}, 0, err
		}
		defer resp.Body.Close()
		var cr server.CommandResponse
		if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
			return server.CommandResponse{}, 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return server.CommandResponse{}, 0, fmt.Errorf("command %s -> %d", op, resp.StatusCode)
		}
		return cr, elapsed, nil
	}

	// Warm the portal connection and the substrate's pooled ORB connection
	// so the measured steer pays the steady-state path, not dial costs.
	if _, _, err := post("status", nil); err != nil {
		return res, err
	}

	// A steer's spans are wall-clock time on a host shared with
	// everything else in the process, so the hop-sum gate reads the
	// median of o1Steers steers rather than a single sample.
	const o1Steers = 9
	hopNames := []string{telemetry.HopEdge, telemetry.HopQueue, telemetry.HopRPC, telemetry.HopServant}
	type steer struct {
		hops     map[string]int64
		sum      int64
		observed time.Duration
	}
	ratio := func(st steer) float64 { return float64(st.sum) / float64(st.observed.Nanoseconds()) }
	steers := make([]steer, o1Steers)
	allNonzero := true
	for i := range steers {
		value := fmt.Sprintf("0.%d", 3+i)
		cr, observed, err := post("set_param", map[string]string{"name": "source_freq", "value": value})
		if err != nil {
			return res, err
		}
		if cr.TraceID == "" {
			res.Rows = append(res.Rows, Row{
				Name:     "traced steer returns a trace id",
				Paper:    "sampled requests are identifiable end to end",
				Measured: "no traceId in CommandResponse",
				Pass:     false,
			})
			return res, nil
		}

		// Fetch the finished trace through the portal, as an operator would.
		var rec telemetry.TraceRecord
		tresp, err := client.Get(edge.BaseURL() + "/api/v1/trace/" + cr.TraceID)
		if err != nil {
			return res, err
		}
		err = json.NewDecoder(tresp.Body).Decode(&rec)
		tresp.Body.Close()
		if tresp.StatusCode != http.StatusOK {
			return res, fmt.Errorf("GET /api/v1/trace/%s -> %d", cr.TraceID, tresp.StatusCode)
		}
		if err != nil {
			return res, err
		}

		// Hop accounting: every hop of the request path must be present
		// and nonzero, and their sum must reproduce the observed latency
		// — the rpc span excludes the echoed servant time, so the four
		// hops add up without double counting.
		st := steer{hops: map[string]int64{}, observed: observed}
		for _, sp := range rec.Spans {
			st.hops[sp.Hop] += sp.DurNanos
		}
		for _, h := range hopNames {
			if st.hops[h] <= 0 {
				allNonzero = false
			}
			st.sum += st.hops[h]
		}
		steers[i] = st
	}
	sort.Slice(steers, func(i, j int) bool { return ratio(steers[i]) < ratio(steers[j]) })
	mid := steers[len(steers)/2]
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("hop decomposition of one steer over a %v-RTT WAN", rtt),
		Paper: "end-to-end latency decomposes into edge, queue, rpc and servant hops",
		Measured: fmt.Sprintf("median steer: edge %v, queue %v, rpc %v, servant %v (every hop nonzero in all %d: %v)",
			time.Duration(mid.hops[telemetry.HopEdge]), time.Duration(mid.hops[telemetry.HopQueue]),
			time.Duration(mid.hops[telemetry.HopRPC]), time.Duration(mid.hops[telemetry.HopServant]),
			o1Steers, allNonzero),
		Pass: allNonzero,
	})

	res.Rows = append(res.Rows, Row{
		Name:  "hop sum vs client-observed latency",
		Paper: "span accounting explains the measured end-to-end time (within 10%)",
		Measured: fmt.Sprintf("median of %d steers: spans sum to %v of %v observed (ratio %.3f; range %.3f-%.3f)",
			o1Steers, time.Duration(mid.sum), mid.observed, ratio(mid), ratio(steers[0]), ratio(steers[o1Steers-1])),
		Pass: ratio(mid) >= 0.9 && ratio(mid) <= 1.1,
	})
	return res, nil
}
