package main

import (
	"strings"
	"time"
)

// metricDef is one reported metric: name, unit and direction of good.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics of a plain run, the ones BENCHMARK.json bounds.
// p99_ms and failed_frac are printed beside them but not bounded there:
// on a shared machine p99 follows the neighbours' load more than the
// program (see NOTES.md), and failed_frac is 0 on churn while a bound is
// a share of the median. The result line's attempted and failed carry
// the units that did not complete.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_mb", "MiB", "lower"},
}

// perLayer are the metrics of a traced run, each named after the module
// that owns the layer. "op" is one generator operation (a steering
// command, a chat or stroke post, or a churn cycle); "event" is an op or
// an application update.
var perLayer = []metricDef{
	{"portal.command_rtt_ms_p50", "ms", "lower"},
	{"portal.response_wait_ms_p50", "ms", "lower"},
	{"portal.self_ms_p50", "ms", "lower"},
	{"portal.conns_per_kop", "count", "lower"},
	{"portal.lost_responses", "count", "lower"},
	{"server.handler_us_p50.command", "us", "lower"},
	{"server.handler_us_p50.chat", "us", "lower"},
	{"server.handler_us_p50.whiteboard", "us", "lower"},
	{"server.handler_us_p50.login", "us", "lower"},
	{"server.handler_us_p50.apps", "us", "lower"},
	{"server.handler_us_p50.connect", "us", "lower"},
	{"server.handler_us_p50.disconnect", "us", "lower"},
	{"server.handler_us_p50.logout", "us", "lower"},
	{"server.shed_total", "count", "lower"},
	{"server.stream_events_per_delivery", "ratio", "lower"},
	{"session.fifo_wait_ms_mean", "ms", "lower"},
	{"session.delivery_lag_ms_mean", "ms", "lower"},
	{"session.dropped_total", "count", "lower"},
	{"session.high_water_max", "count", "lower"},
	{"core.relay_invocations_per_event", "ratio", "lower"},
	{"core.relay_msgs_per_invocation", "ratio", "higher"},
	{"core.relay_queue_wait_ms_mean", "ms", "lower"},
	{"core.relay_flush_ms_mean", "ms", "lower"},
	{"core.relay_dropped_total", "count", "lower"},
	{"core.relay_out_of_order", "count", "lower"},
	{"core.dircache_hit_ratio", "ratio", "higher"},
	{"core.fanout_calls_per_listing", "ratio", "lower"},
	{"core.fanout_ms_mean", "ms", "lower"},
	{"orb.invocations_per_op", "ratio", "lower"},
	{"orb.oneways_per_op", "ratio", "lower"},
	{"orb.invoke_ms_mean", "ms", "lower"},
	{"orb.servant_ms_mean", "ms", "lower"},
	{"orb.oneway_ms_mean", "ms", "lower"},
	{"wire.bytes_per_op", "B", "lower"},
	{"wire.writes_per_op", "ratio", "lower"},
	{"wire.intern_hit_ratio", "ratio", "higher"},
	{"wire.compressed_per_kop", "count", "higher"},
	{"appproto.phase_us_p50", "us", "lower"},
	{"appproto.phases_per_s", "1/s", "higher"},
	{"appproto.cmds_per_phase", "ratio", "higher"},
	{"appproto.bytes_per_phase", "B", "lower"},
	{"collab.ops_applied_per_event", "ratio", "lower"},
	{"collab.duplicate_ratio", "ratio", "lower"},
	{"collab.syncs_total", "count", "lower"},
	{"storage.wal_appends_per_op", "ratio", "lower"},
	{"storage.wal_bytes_per_op", "B", "lower"},
	{"storage.snapshots_total", "count", "lower"},
	{"trace.overhead_p50_ms", "ms", "lower"},
	{"trace.overhead_cpu_ms_per_op", "ms", "lower"},
}

// handlerRoutes are the portal routes with a per-route handler metric.
var handlerRoutes = []string{"command", "chat", "whiteboard", "login", "apps", "connect", "disconnect", "logout"}

const ms = float64(time.Millisecond)

// e2e computes one window's end-to-end figures (setup_s aside).
type e2e struct {
	p50, p99, cpuPerOp, failedFrac float64
	n                              int
}

func endToEndOf(w *windowResult) e2e {
	r := w.rec
	lat := append([]float64(nil), r.lat...)
	completed := r.attempted - r.errored
	return e2e{
		p50:        percentile(lat, 0.5),
		p99:        percentile(lat, 0.99),
		cpuPerOp:   ratio(float64(w.cpu)/ms, float64(completed)),
		failedFrac: ratio(float64(r.flawed()), float64(r.attempted)),
		n:          len(r.lat),
	}
}

// layerMetrics decomposes the traced window t; p is the plain windows run
// around it on the same federation, merged.
func layerMetrics(p, t *windowResult) map[string]float64 {
	m := map[string]float64{}
	ops := float64(t.rec.ops)
	events := ops + float64(t.child.Phases)
	st, pm := t.stats, t.metrics

	// portal: spans the generator took around its calls.
	byParent := map[uint64][]span{}
	for _, s := range t.spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	for _, h := range t.child.Handlers {
		byParent[h.Parent] = append(byParent[h.Parent], span{Name: "server." + h.Route, Start: h.Start, End: h.End})
	}
	var rtt, wait, self []float64
	calls := 0
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, "portal.") {
			continue
		}
		calls++
		kids := byParent[s.ID]
		self = append(self, float64(selfTime(s, kids))/ms)
		if s.Name != "portal.command" {
			continue
		}
		rtt = append(rtt, float64(s.dur())/ms)
		// The response wait is what the op spends after the POST's reply.
		for _, k := range kids {
			if k.Name == "http" {
				wait = append(wait, float64(s.End-k.End)/ms)
			}
		}
	}
	m["portal.command_rtt_ms_p50"] = percentile(rtt, 0.5)
	m["portal.response_wait_ms_p50"] = percentile(wait, 0.5)
	m["portal.self_ms_p50"] = percentile(self, 0.5)
	m["portal.conns_per_kop"] = ratio(1000*t.dials, float64(calls))
	m["portal.lost_responses"] = float64(t.rec.lost)

	// server: handler spans by route, plus the edge's own counters.
	byRoute := map[string][]float64{}
	for _, h := range t.child.Handlers {
		byRoute[h.Route] = append(byRoute[h.Route], float64(h.End-h.Start)/float64(time.Microsecond))
	}
	for _, r := range handlerRoutes {
		m["server.handler_us_p50."+r] = percentile(byRoute[r], 0.5)
	}
	m["server.shed_total"] = st.sum("edge_shed")
	m["server.stream_events_per_delivery"] = ratio(pm.sum("discover_edge_stream_events_total"), t.deliv)

	m["session.fifo_wait_ms_mean"] = 1000 * pm.histMean("discover_fifo_wait_seconds")
	m["session.delivery_lag_ms_mean"] = 1000 * pm.histMean("discover_stream_delivery_lag_seconds")
	m["session.dropped_total"] = st.sum("session_dropped")
	m["session.high_water_max"] = t.hw

	relayInv := st.sum("relay_invocations")
	m["core.relay_invocations_per_event"] = ratio(relayInv, events)
	m["core.relay_msgs_per_invocation"] = ratio(st.sum("relay_delivered"), relayInv)
	m["core.relay_queue_wait_ms_mean"] = 1000 * pm.histMean("discover_relay_queue_wait_seconds")
	m["core.relay_flush_ms_mean"] = 1000 * pm.histMean("discover_relay_flush_seconds")
	m["core.relay_dropped_total"] = st.sum("relay_dropped")
	m["core.relay_out_of_order"] = float64(t.rec.reorders)
	hits, misses := st.sum("dir_hits"), st.sum("dir_misses")
	m["core.dircache_hit_ratio"] = ratio(hits, hits+misses)
	m["core.fanout_calls_per_listing"] = ratio(st.sum("dir_fanout_calls"), t.listing)
	m["core.fanout_ms_mean"] = 1000 * pm.histMean("discover_fanout_seconds")

	m["orb.invocations_per_op"] = ratio(st.sum("wire_invocations"), ops)
	m["orb.oneways_per_op"] = ratio(st.sum("wire_oneways"), ops)
	m["orb.invoke_ms_mean"] = 1000 * pm.histMean("discover_orb_invoke_seconds")
	m["orb.servant_ms_mean"] = 1000 * pm.histMean("discover_orb_servant_seconds")
	m["orb.oneway_ms_mean"] = 1000 * pm.histMean("discover_orb_oneway_seconds")

	m["wire.bytes_per_op"] = ratio(st.sum("wire_bytes"), ops)
	m["wire.writes_per_op"] = ratio(st.sum("wire_writes"), ops)
	ih := st.sum("wire_intern_hits")
	m["wire.intern_hit_ratio"] = ratio(ih, ih+st.sum("wire_intern_defs"))
	m["wire.compressed_per_kop"] = ratio(1000*st.sum("wire_compressed"), ops)

	m["appproto.phase_us_p50"] = percentile(append([]float64(nil), t.child.PhaseUS...), 0.5)
	m["appproto.phases_per_s"] = float64(t.child.Phases) / t.dur.Seconds()
	m["appproto.cmds_per_phase"] = ratio(float64(t.child.Served), float64(t.child.Phases))
	m["appproto.bytes_per_phase"] = ratio(float64(t.child.AppBytes), float64(t.child.Phases))

	applied, dup := pm.sum("discover_collab_ops_applied_total"), pm.sum("discover_collab_ops_duplicate_total")
	m["collab.ops_applied_per_event"] = ratio(applied, ops)
	m["collab.duplicate_ratio"] = ratio(dup, applied+dup)
	m["collab.syncs_total"] = pm.sum("discover_collab_syncs_total")

	m["storage.wal_appends_per_op"] = ratio(st.sum("wal_appends"), ops)
	m["storage.wal_bytes_per_op"] = ratio(st.sum("wal_bytes"), ops)
	m["storage.snapshots_total"] = st.sum("snapshots")

	pe, te := endToEndOf(p), endToEndOf(t)
	m["trace.overhead_p50_ms"] = te.p50 - pe.p50
	m["trace.overhead_cpu_ms_per_op"] = te.cpuPerOp - pe.cpuPerOp
	return m
}

// routeCounts reports how many handler spans each route had, for the
// sample counts behind the per-route medians.
func routeCounts(hs []handlerSpan) map[string]int {
	out := map[string]int{}
	for _, h := range hs {
		out[h.Route]++
	}
	return out
}
