package server

// Request observability: the instrumentation middleware every endpoint
// runs under (per-endpoint latency histograms, status-code counters, an
// in-flight gauge, structured request logs), the opt-in per-query trace
// surface (?trace=1 / X-Kdash-Trace), and the cancellation mapping.
// The Prometheus exposition of these counters lives in metrics.go; the
// metric and trace-schema reference in docs/OBSERVABILITY.md.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"kdash/internal/obs"
)

// endpointNames fixes the endpoints' order everywhere they are
// enumerated (/statz latency block, /metrics exposition), so scrapes
// are stable across processes.
var endpointNames = []string{
	"topk", "batch", "personalized", "proximity",
	"update", "healthz", "statz", "metrics",
}

// statusCodes is every status the handler itself emits: 202 is a
// logged /update's ack, 503 a query or update that found index data
// unavailable. codeSlot folds any other code, which only net/http
// itself would write, onto its class representative.
var statusCodes = [...]int{200, 202, 400, 405, 499, 500, 503}

func codeSlot(code int) int {
	for i, c := range statusCodes {
		if c == code {
			return i
		}
	}
	switch {
	case code < 300:
		return 0
	case code < 500:
		return 2
	default:
		return 5
	}
}

// endpointMetrics is one endpoint's slice of the handler's request
// telemetry: a lock-free latency histogram and completed-request counts
// by status code.
type endpointMetrics struct {
	lat   obs.Histogram
	codes [len(statusCodes)]atomic.Int64
}

// statusClientClosedRequest is the nginx-convention status for a
// request abandoned because the client went away: the engine's
// context-cancellation errors map here, counted apart from real
// failures.
const statusClientClosedRequest = 499

// statusWriter records the first status code written so the middleware
// can count and log it; everything else passes straight through.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code, sw.wrote = code, true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

// endpoint is one endpoint's body. The request's query string arrives
// already parsed: instrument parses it once, for the budget parameter,
// and every endpoint reads its own parameters from the same values.
type endpoint func(w http.ResponseWriter, r *http.Request, query url.Values)

// instrument wraps one endpoint with the telemetry middleware: latency
// into the endpoint's histogram, status into its code counters, the
// in-flight gauge, and (when configured) one structured log line per
// request. Endpoint panics are recovered here — not only in ServeHTTP —
// so a panicking request still records its latency and its 500;
// ServeHTTP's recover stays as the backstop for the mux itself.
func (h *Handler) instrument(name string, fn endpoint) http.HandlerFunc {
	em := h.endpoints[name]
	return func(w http.ResponseWriter, r *http.Request) {
		h.inFlight.Add(1)
		t0 := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		defer func() {
			if rec := recover(); rec != nil {
				h.qPanics.Add(1)
				h.qInternal.Add(1)
				sw.code = http.StatusInternalServerError
				httpError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
			}
			d := time.Since(t0)
			em.lat.Observe(d)
			em.codes[codeSlot(sw.code)].Add(1)
			h.inFlight.Add(-1)
			if h.logger != nil {
				h.logRequest(r, name, sw.code, d)
			}
		}()
		// Per-request deadline: the server default, overridden by an
		// explicit ?budget=<duration>. The bounded context threads into
		// SearchOptions.Ctx, so a query that exhausts its budget mid-solve
		// is abandoned between solve steps and answered with a 499.
		query := r.URL.Query()
		deadline := h.defaultTimeout
		if raw := query.Get("budget"); raw != "" {
			v, err := time.ParseDuration(raw)
			if err != nil || v <= 0 {
				h.badRequest(sw, "bad budget %q: want a positive Go duration like 250ms", raw)
				return
			}
			deadline = v
		}
		if deadline > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), deadline)
			defer cancel()
			r = r.WithContext(ctx)
		}
		fn(sw, r, query)
	}
}

// logRequest emits the one structured line per request WithRequestLog
// buys: severity follows the status class, and the trace id (random,
// per request) gives log aggregators a join key.
func (h *Handler) logRequest(r *http.Request, endpoint string, code int, d time.Duration) {
	level := slog.LevelInfo
	switch {
	case code >= 500:
		level = slog.LevelError
	case code >= 400 && code != statusClientClosedRequest:
		level = slog.LevelWarn
	}
	h.logger.LogAttrs(context.Background(), level, "request",
		slog.String("traceId", fmt.Sprintf("%016x", rand.Uint64())),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.String("endpoint", endpoint),
		slog.Int("status", code),
		slog.Duration("latency", d),
	)
}

// cancelled maps an engine error caused by context cancellation — the
// client disconnected or timed out mid-solve — to 499 and counts it
// apart from genuine engine failures, then reports whether it handled
// the error.
func (h *Handler) cancelled(w http.ResponseWriter, err error) bool {
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	h.qCancelled.Add(1)
	httpError(w, statusClientClosedRequest, err.Error())
	return true
}

// wantTrace reports whether the request opted into per-query tracing,
// via ?trace=1 or the X-Kdash-Trace header.
func wantTrace(r *http.Request, query url.Values) bool {
	if v := r.Header.Get("X-Kdash-Trace"); v == "1" || v == "true" {
		return true
	}
	v := query.Get("trace")
	return v == "1" || v == "true"
}

// getTrace checks a reset trace recorder out of the handler's pool;
// putTrace returns it. Pooling keeps the traced path allocation-light
// (step slices are reused), though a traced query still pays for its
// clock reads — tracing is opt-in per request precisely so the default
// path stays at its steady-state allocation count.
//
//kdash:pooled
func (h *Handler) getTrace() *obs.QueryTrace {
	if t, ok := h.tracePool.Get().(*obs.QueryTrace); ok {
		t.Reset()
		return t
	}
	return &obs.QueryTrace{}
}

//kdash:release
func (h *Handler) putTrace(t *obs.QueryTrace) { h.tracePool.Put(t) }

// buildInfo is the /healthz "build" block, resolved once: the Go
// toolchain, main module and (when the binary was built inside a VCS
// checkout) the revision it was built from.
var (
	buildInfoOnce sync.Once
	buildInfoDoc  map[string]string
)

func buildInfo() map[string]string {
	buildInfoOnce.Do(func() {
		buildInfoDoc = map[string]string{}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		buildInfoDoc["goVersion"] = bi.GoVersion
		buildInfoDoc["module"] = bi.Main.Path
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfoDoc["revision"] = s.Value
			case "vcs.time":
				buildInfoDoc["vcsTime"] = s.Value
			case "vcs.modified":
				buildInfoDoc["vcsModified"] = s.Value
			}
		}
	})
	return buildInfoDoc
}
