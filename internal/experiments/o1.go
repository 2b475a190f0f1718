package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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

	fed, err := NewFederation(FederationConfig{
		Domains: []struct {
			Name string
			Site netsim.Site
		}{DomainAt("host", "east"), DomainAt("edge", "west")},
		Topology: func(t *netsim.Topology) { t.SetRTT("east", "west", rtt) },
	})
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
	if _, err := edge.Srv.ConnectApp(context.Background(), sess, as.AppID()); err != nil {
		return res, err
	}
	if granted, holder, err := edge.Srv.LockOp(context.Background(), sess, true); err != nil || !granted {
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

	cr, observed, err := post("set_param", map[string]string{"name": "source_freq", "value": "0.3"})
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
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("GET /api/v1/trace/%s -> %d", cr.TraceID, tresp.StatusCode)
	}
	if err := json.NewDecoder(tresp.Body).Decode(&rec); err != nil {
		return res, err
	}

	// Hop accounting: every hop of the request path must be present and
	// nonzero, and their sum must reproduce the observed latency — the
	// rpc span excludes the echoed servant time, so the four hops add up
	// without double counting.
	hops := map[string]int64{}
	for _, sp := range rec.Spans {
		hops[sp.Hop] += sp.DurNanos
	}
	var sum int64
	allNonzero := true
	for _, h := range []string{telemetry.HopEdge, telemetry.HopQueue, telemetry.HopRPC, telemetry.HopServant} {
		if hops[h] <= 0 {
			allNonzero = false
		}
		sum += hops[h]
	}
	res.Rows = append(res.Rows, Row{
		Name:  fmt.Sprintf("hop decomposition of one steer over a %v-RTT WAN", rtt),
		Paper: "end-to-end latency decomposes into edge, queue, rpc and servant hops",
		Measured: fmt.Sprintf("edge %v, queue %v, rpc %v, servant %v",
			time.Duration(hops[telemetry.HopEdge]), time.Duration(hops[telemetry.HopQueue]),
			time.Duration(hops[telemetry.HopRPC]), time.Duration(hops[telemetry.HopServant])),
		Pass: allNonzero,
	})

	ratio := float64(sum) / float64(observed.Nanoseconds())
	res.Rows = append(res.Rows, Row{
		Name:     "hop sum vs client-observed latency",
		Paper:    "span accounting explains the measured end-to-end time (within 10%)",
		Measured: fmt.Sprintf("spans sum to %v of %v observed (ratio %.3f)", time.Duration(sum), observed, ratio),
		Pass:     ratio >= 0.9 && ratio <= 1.1,
	})
	return res, nil
}
