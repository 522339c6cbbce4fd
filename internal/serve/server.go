package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"sdcmd/internal/telemetry"
)

// Server is the HTTP front end over a Scheduler.
//
//	POST   /jobs             submit a JobSpec; 201 created, 200 on
//	                         cache hit / singleflight coalesce, 429 +
//	                         Retry-After on backpressure or tenant
//	                         quota, 503 draining
//	GET    /jobs/{id}        job status
//	GET    /jobs/{id}/events live SSE feed: status transitions,
//	                         progress ticks and telemetry stream lines,
//	                         with heartbeats and Last-Event-ID resume
//	GET    /jobs/{id}/result result of a done job (409 until then)
//	DELETE /jobs/{id}        cancel; effective in every non-terminal
//	                         state (owner-only under tenancy)
//	GET    /metrics          aggregated telemetry (Prometheus text, or
//	                         JSON with ?format=json) + service counters
//	                         + per-tenant sdcserve_tenant_* rows
//	GET    /healthz          liveness + drain state + store health
//
// With a tenants file loaded, the /jobs endpoints require
// `Authorization: Bearer <key>` (or `X-API-Key: <key>`); /metrics and
// /healthz stay open for scrapers and probes.
//
// Close stops the listener gracefully and reports the first serve
// failure. It does NOT drain the scheduler — call Scheduler.Drain
// BEFORE Close so attached SSE streams receive their terminal events
// and end on their own instead of being cut off by the teardown.
type Server = telemetry.Server

// api binds the handlers to their scheduler so response-write failures
// can be accounted against its counters (client abort vs server error).
type api struct {
	sched *Scheduler
}

// NewMux builds the service routing for sched.
func NewMux(sched *Scheduler) *http.ServeMux {
	a := &api{sched: sched}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", a.auth(a.handleSubmit))
	mux.HandleFunc("GET /jobs/{id}", a.auth(func(w http.ResponseWriter, r *http.Request, _ *Tenant) {
		st, ok := a.sched.Get(r.PathValue("id"))
		if !ok {
			a.writeError(w, http.StatusNotFound, "no such job")
			return
		}
		a.writeJSON(w, http.StatusOK, st)
	}))
	mux.HandleFunc("GET /jobs/{id}/events", a.auth(a.handleEvents))
	mux.HandleFunc("GET /jobs/{id}/result", a.auth(a.handleResult))
	mux.HandleFunc("DELETE /jobs/{id}", a.auth(a.handleCancel))
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		a.handleMetrics(w, r)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// The store state rides on health: "degraded" means results are
		// being served from memory only and will not survive a restart —
		// alertable, but the service is still up.
		storeState := "off"
		if st := a.sched.Store(); st != nil {
			storeState = "ok"
			if st.Degraded() {
				storeState = "degraded"
			}
		}
		a.writeJSON(w, http.StatusOK, map[string]any{
			"status":  "ok",
			"running": a.sched.Running(),
			"queued":  a.sched.QueueDepth(),
			"streams": a.sched.StreamsActive(),
			"store":   storeState,
		})
	})
	return mux
}

// auth resolves the request's tenant. Without a tenants file every
// request is the anonymous tenant; with one, a missing or unknown key
// is a 401 before the handler runs.
func (a *api) auth(h func(http.ResponseWriter, *http.Request, *Tenant)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reg := a.sched.Tenants()
		if reg == nil {
			h(w, r, anonymous())
			return
		}
		key := r.Header.Get("X-API-Key")
		if bearer := r.Header.Get("Authorization"); key == "" && strings.HasPrefix(bearer, "Bearer ") {
			key = strings.TrimPrefix(bearer, "Bearer ")
		}
		t := reg.Lookup(key)
		if t == nil {
			a.writeError(w, http.StatusUnauthorized, "missing or unknown API key")
			return
		}
		h(w, r, t)
	}
}

func (a *api) handleSubmit(w http.ResponseWriter, r *http.Request, t *Tenant) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		a.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad job spec: %v", err))
		return
	}
	st, code, err := a.sched.SubmitAs(t, spec)
	switch code {
	case SubmitCreated:
		a.writeJSON(w, http.StatusCreated, st)
	case SubmitCoalesced, SubmitCacheHit:
		a.writeJSON(w, http.StatusOK, st)
	case SubmitInvalid:
		a.writeError(w, http.StatusBadRequest, err.Error())
	case SubmitQuotaExceeded:
		// Quota 429s carry the tenant's own hint — bucket refill time or
		// one mean job duration — not the shared-queue formula: the
		// tenant is waiting on its budget, not on other tenants' jobs.
		var qe *QuotaError
		retry := 1
		if errors.As(err, &qe) {
			retry = qe.RetryAfterSeconds
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		a.writeError(w, http.StatusTooManyRequests, err.Error())
	case SubmitQueueFull:
		// The hint scales with queue depth and recent job durations
		// (scheduler.RetryAfterSeconds), not a fixed constant: a client
		// told "1" behind ten multi-second jobs just burns retries.
		w.Header().Set("Retry-After", strconv.Itoa(a.sched.RetryAfterSeconds()))
		a.writeError(w, http.StatusTooManyRequests, err.Error())
	case SubmitDraining:
		a.writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		a.sched.noteServerError()
		a.writeError(w, http.StatusInternalServerError, "unknown submit outcome")
	}
}

func (a *api) handleResult(w http.ResponseWriter, r *http.Request, _ *Tenant) {
	res, st, ok := a.sched.Result(r.PathValue("id"))
	if !ok {
		a.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	switch st.State {
	case StateDone:
		a.writeJSON(w, http.StatusOK, res)
	case StateFailed:
		a.writeError(w, http.StatusInternalServerError, st.Error)
	default:
		// Not done yet (queued/running/canceled/interrupted): report the
		// state so pollers can decide whether to keep waiting.
		a.writeJSON(w, http.StatusConflict, st)
	}
}

func (a *api) handleCancel(w http.ResponseWriter, r *http.Request, t *Tenant) {
	id := r.PathValue("id")
	if a.sched.Tenants() != nil {
		// Under tenancy, cancellation is owner-only: statuses are shared
		// read-side (the cache is content-addressed and cross-tenant),
		// but killing someone else's job is not.
		owner, ok := a.sched.Owner(id)
		if !ok {
			a.writeError(w, http.StatusNotFound, "no such job")
			return
		}
		if owner != t.Name {
			a.writeError(w, http.StatusForbidden, "job belongs to another tenant")
			return
		}
	}
	st, ok := a.sched.Cancel(id)
	if !ok {
		a.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	a.writeJSON(w, http.StatusOK, st)
}

// sseRetryMillis tells reconnecting EventSource clients how long to
// back off before replaying from Last-Event-ID.
const sseRetryMillis = 1000

// handleEvents is the live per-job feed: Server-Sent Events carrying
// status transitions, progress ticks and telemetry stream lines. The
// stream replays history from `Last-Event-ID` (or ?after=N) and ends
// cleanly when the job reaches a terminal state, the client goes away,
// or a drain closes the feed. Heartbeat comments keep idle
// connections alive through proxies without consuming event IDs.
func (a *api) handleEvents(w http.ResponseWriter, r *http.Request, _ *Tenant) {
	elog, ok := a.sched.Events(r.PathValue("id"))
	if !ok {
		a.writeError(w, http.StatusNotFound, "no such job")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		a.sched.noteServerError()
		a.writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	after := int64(0)
	lastID := r.Header.Get("Last-Event-ID")
	if lastID == "" {
		lastID = r.URL.Query().Get("after")
	}
	if lastID != "" {
		n, err := strconv.ParseInt(lastID, 10, 64)
		if err != nil || n < 0 {
			a.writeError(w, http.StatusBadRequest, fmt.Sprintf("bad Last-Event-ID %q", lastID))
			return
		}
		after = n
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if _, err := fmt.Fprintf(w, "retry: %d\n\n", sseRetryMillis); err != nil {
		a.sched.noteClientAbort()
		return
	}
	fl.Flush()

	a.sched.noteStreamStart()
	defer a.sched.noteStreamEnd()
	hb := time.NewTicker(a.sched.opts.Heartbeat)
	defer hb.Stop()
	for {
		events, wake, closed := elog.since(after)
		for _, e := range events {
			if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, e.Data); err != nil {
				a.sched.noteClientAbort()
				return
			}
			after = e.ID
		}
		if len(events) > 0 {
			fl.Flush()
			// Drain the log to empty before honoring close: the terminal
			// event must reach the client first.
			continue
		}
		if closed {
			return
		}
		select {
		case <-r.Context().Done():
			// Normal client disconnect (or server connection teardown):
			// not an abort — no write failed.
			return
		case <-wake:
		case <-hb.C:
			// Comment line: keeps intermediaries from timing the stream
			// out, carries no ID so resume semantics are unaffected.
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				a.sched.noteClientAbort()
				return
			}
			fl.Flush()
		}
	}
}

// handleMetrics renders the aggregated per-job telemetry followed by
// the service's own counters and per-tenant rows, in the same
// exposition formats as the telemetry package (Prometheus text, JSON
// with ?format=json). The body is assembled in memory and written
// once, so a mid-scrape disconnect can never leave a half-written
// exposition interleaved with late error output.
func (a *api) handleMetrics(w http.ResponseWriter, r *http.Request) {
	sched := a.sched
	m := sched.Metrics()
	c := sched.Counters()
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		a.writeJSON(w, http.StatusOK, struct {
			Jobs    Counters                  `json:"jobs"`
			Queued  int                       `json:"queued"`
			Running int                       `json:"running"`
			Streams int                       `json:"streams"`
			Tenants map[string]TenantCounters `json:"tenants,omitempty"`
			Sim     any                       `json:"sim"`
		}{Jobs: c, Queued: sched.QueueDepth(), Running: sched.Running(),
			Streams: sched.StreamsActive(), Tenants: sched.TenantCounters(), Sim: m})
		return
	}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		a.sched.noteServerError()
		a.writeError(w, http.StatusInternalServerError, "render metrics")
		return
	}
	rows := []telemetry.Row{
		{Name: "sdcserve_jobs_submitted_total", Kind: "counter", Help: "Jobs admitted to the queue.", Value: float64(c.Submitted)},
		{Name: "sdcserve_jobs_completed_total", Kind: "counter", Help: "Jobs finished successfully.", Value: float64(c.Completed)},
		{Name: "sdcserve_jobs_failed_total", Kind: "counter", Help: "Jobs that returned an error.", Value: float64(c.Failed)},
		{Name: "sdcserve_jobs_canceled_total", Kind: "counter", Help: "Jobs canceled by clients.", Value: float64(c.Canceled)},
		{Name: "sdcserve_jobs_rejected_total", Kind: "counter", Help: "Submissions rejected by queue backpressure.", Value: float64(c.Rejected)},
		{Name: "sdcserve_quota_rejected_total", Kind: "counter", Help: "Submissions rejected by a tenant quota.", Value: float64(c.QuotaRejected)},
		{Name: "sdcserve_cache_hits_total", Kind: "counter", Help: "Submissions served from the content-addressed result cache.", Value: float64(c.CacheHits)},
		{Name: "sdcserve_jobs_coalesced_total", Kind: "counter", Help: "Submissions coalesced onto an identical in-flight job.", Value: float64(c.Coalesced)},
		{Name: "sdcserve_jobs_resumed_total", Kind: "counter", Help: "Jobs re-admitted from drain manifests at startup.", Value: float64(c.Resumed)},
		{Name: "sdcserve_bad_manifests_total", Kind: "counter", Help: "Corrupt drain manifests quarantined at startup.", Value: float64(c.BadManifests)},
		{Name: "sdcserve_streams_opened_total", Kind: "counter", Help: "SSE event streams accepted.", Value: float64(c.StreamsOpened)},
		{Name: "sdcserve_client_aborts_total", Kind: "counter", Help: "Response writes that failed because the client went away.", Value: float64(c.ClientAborts)},
		{Name: "sdcserve_server_errors_total", Kind: "counter", Help: "Responses the server could not produce.", Value: float64(c.ServerErrors)},
		{Name: "sdcserve_queue_depth", Kind: "gauge", Help: "Admitted jobs waiting for a shard.", Value: float64(sched.QueueDepth())},
		{Name: "sdcserve_jobs_running", Kind: "gauge", Help: "Jobs currently executing.", Value: float64(sched.Running())},
		{Name: "sdcserve_streams_active", Kind: "gauge", Help: "Currently attached SSE clients.", Value: float64(sched.StreamsActive())},
	}
	if st := sched.Store(); st != nil {
		ss := st.Stats()
		degraded := 0.0
		if ss.Degraded {
			degraded = 1
		}
		rows = append(rows,
			telemetry.Row{Name: "sdcserve_store_hits_total", Kind: "counter", Help: "Submissions served from the durable store after a memory miss.", Value: float64(c.StoreHits)},
			telemetry.Row{Name: "sdcserve_store_puts_total", Kind: "counter", Help: "Results written durably to the store.", Value: float64(ss.Puts)},
			telemetry.Row{Name: "sdcserve_store_put_errors_total", Kind: "counter", Help: "Store writes that failed after retries.", Value: float64(ss.PutErrors)},
			telemetry.Row{Name: "sdcserve_store_misses_total", Kind: "counter", Help: "Store lookups that found nothing.", Value: float64(ss.Misses)},
			telemetry.Row{Name: "sdcserve_store_quarantined_total", Kind: "counter", Help: "Corrupt or torn store entries quarantined.", Value: float64(ss.Quarantined)},
			telemetry.Row{Name: "sdcserve_store_evicted_total", Kind: "counter", Help: "Store entries removed by the retention policy.", Value: float64(ss.Evicted)},
			telemetry.Row{Name: "sdcserve_store_io_retries_total", Kind: "counter", Help: "Transient store IO errors retried with backoff.", Value: float64(ss.Retries)},
			telemetry.Row{Name: "sdcserve_store_entries", Kind: "gauge", Help: "Entries in the durable catalog.", Value: float64(ss.Entries)},
			telemetry.Row{Name: "sdcserve_store_bytes", Kind: "gauge", Help: "On-disk footprint of the store in bytes.", Value: float64(ss.Bytes)},
			telemetry.Row{Name: "sdcserve_store_mem_entries", Kind: "gauge", Help: "Degraded-mode entries held only in memory.", Value: float64(ss.MemEntries)},
			telemetry.Row{Name: "sdcserve_store_degraded", Kind: "gauge", Help: "1 when the store is serving memory-only after persistent disk failure.", Value: degraded},
		)
	}
	if err := telemetry.WriteRows(&buf, rows); err != nil {
		a.sched.noteServerError()
		a.writeError(w, http.StatusInternalServerError, "render metrics")
		return
	}
	writeTenantRows(&buf, sched.TenantCounters())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(buf.Bytes()); err != nil {
		a.sched.noteClientAbort()
	}
}

// writeTenantRows renders the labeled per-tenant families. These are
// written by hand rather than through telemetry.WriteRows because each
// family has one HELP/TYPE header followed by one sample per tenant —
// the Row helper emits a header per row, which is invalid for labeled
// series.
func writeTenantRows(buf *bytes.Buffer, tenants map[string]TenantCounters) {
	if len(tenants) == 0 {
		return
	}
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	families := []struct {
		name string
		kind string
		help string
		get  func(TenantCounters) int
	}{
		{"sdcserve_tenant_jobs_submitted_total", "counter", "Jobs admitted per tenant.", func(c TenantCounters) int { return c.Submitted }},
		{"sdcserve_tenant_jobs_completed_total", "counter", "Jobs finished per tenant.", func(c TenantCounters) int { return c.Completed }},
		{"sdcserve_tenant_jobs_failed_total", "counter", "Jobs failed per tenant.", func(c TenantCounters) int { return c.Failed }},
		{"sdcserve_tenant_jobs_canceled_total", "counter", "Jobs canceled per tenant.", func(c TenantCounters) int { return c.Canceled }},
		{"sdcserve_tenant_cache_hits_total", "counter", "Cache and store hits per tenant.", func(c TenantCounters) int { return c.CacheHits }},
		{"sdcserve_tenant_quota_rejected_total", "counter", "Submissions rejected by this tenant's quotas.", func(c TenantCounters) int { return c.QuotaRejected }},
		{"sdcserve_tenant_jobs_queued", "gauge", "Jobs waiting for a shard per tenant.", func(c TenantCounters) int { return c.Queued }},
		{"sdcserve_tenant_jobs_running", "gauge", "Jobs executing per tenant.", func(c TenantCounters) int { return c.Running }},
	}
	for _, f := range families {
		_, _ = fmt.Fprintf(buf, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, name := range names {
			_, _ = fmt.Fprintf(buf, "%s{tenant=%q} %d\n", f.name, name, f.get(tenants[name]))
		}
	}
}

// writeJSON is the single-write response path: the body is encoded
// fully before any header goes out, so an encode failure can still
// become a clean 500 and a write failure is classified (client abort)
// rather than silently swallowed. Handlers call it exactly once.
func (a *api) writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Nothing has been written yet: downgrade to a well-formed 500
		// instead of a truncated 2xx.
		a.sched.noteServerError()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		if _, werr := fmt.Fprintln(w, `{"error":"response encoding failed"}`); werr != nil {
			a.sched.noteClientAbort()
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b = append(b, '\n')
	if _, err := w.Write(b); err != nil {
		a.sched.noteClientAbort()
	}
}

func (a *api) writeError(w http.ResponseWriter, code int, msg string) {
	a.writeJSON(w, code, map[string]string{"error": msg})
}

// Start listens on addr (host:port; port 0 picks a free port) and
// serves the job API until Close.
func Start(addr string, sched *Scheduler) (*Server, error) {
	s, err := telemetry.Listen(addr, NewMux(sched))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	return s, nil
}
