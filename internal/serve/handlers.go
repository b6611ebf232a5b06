package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"

	"repro/internal/obs"
	sp "repro/internal/spec"
)

// maxBodyBytes bounds a submission body; a Spec is a few hundred bytes.
const maxBodyBytes = 1 << 20

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	mux.HandleFunc("GET /v1/runs", s.handleList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/runs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/runs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/runs/{id}/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	mux.HandleFunc("GET /v1/campaigns", s.handleCampaignList)
	mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignGet)
	mux.HandleFunc("GET /v1/campaigns/{id}/aggregate", s.handleCampaignAggregate)
	mux.HandleFunc("GET /v1/campaigns/{id}/stream", s.handleCampaignStream)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /version", handleVersion)
	if s.opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(mux)
}

// writeJSON emits v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError emits {"error": msg}.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func (s *Server) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
		return
	}
	info, err := s.Submit(spec)
	if err != nil {
		var (
			bad         *badRequestError
			unreachable *sp.UnreachableHostsError
		)
		switch {
		case errors.As(err, &unreachable):
			// Structured body: clients retrying a placement need the bad
			// addresses, not a prose blob to parse.
			writeJSON(w, http.StatusBadRequest, map[string]any{
				"error":       err.Error(),
				"unreachable": unreachable.Hosts,
			})
		case errors.As(err, &bad):
			writeError(w, http.StatusBadRequest, err.Error())
		case errors.Is(err, errQueueFull):
			writeError(w, http.StatusServiceUnavailable, err.Error())
		default:
			writeError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Runs())
}

func (s *Server) handleGet(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownRun.Error())
		return
	}
	writeJSON(w, http.StatusOK, r.Info())
}

// handleResult serves the final Summary of a done run — encoded exactly as
// `rbb-sim -json` prints it, so the two are diffable byte for byte.
func (s *Server) handleResult(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownRun.Error())
		return
	}
	info := r.Info()
	switch info.Status {
	case StatusDone:
		writeJSON(w, http.StatusOK, info.Summary)
	case StatusFailed:
		writeError(w, http.StatusConflict, fmt.Sprintf("run failed: %s", info.Error))
	default:
		writeError(w, http.StatusConflict, fmt.Sprintf("run is %s at round %d", info.Status, info.Round))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	cancelled, err := s.Cancel(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if !cancelled {
		r, _ := s.lookup(id)
		writeError(w, http.StatusConflict, fmt.Sprintf("run already %s", r.Info().Status))
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "cancelling"})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownRun.Error())
		return
	}
	if s.store == nil {
		writeError(w, http.StatusConflict, "server has no data directory")
		return
	}
	if !r.requestCheckpoint() {
		writeError(w, http.StatusConflict, "run is not a running rbb process")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"status": "checkpoint requested"})
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	queued, running, terminal := s.Counters()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"workers":  s.opts.Workers,
		"queued":   queued,
		"running":  running,
		"terminal": terminal,
		"revision": obs.Build().Revision,
	})
}

// handleMetrics serves the process registry in the Prometheus text format,
// refreshing the scrape-time run-state gauges first.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	queued, running, terminal := s.Counters()
	mRunsQueued.Set(int64(queued))
	mRunsRunning.Set(int64(running))
	mRunsTerminal.Set(int64(terminal))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.Default.WritePrometheus(w)
}

// handleVersion serves the binary's build provenance.
func handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, obs.Build())
}

// handleStream tails a run's observer events: one JSON object per line
// (NDJSON), or SSE `data:` frames when the client asks for
// text/event-stream. The stream ends with the run's state as of the moment
// it left the scheduler — status done/failed/cancelled, or queued again if
// the server is shutting down. Slow consumers may miss intermediate
// samples (the run never blocks on a subscriber); the terminal line is
// always delivered.
func (s *Server) handleStream(w http.ResponseWriter, req *http.Request) {
	r, ok := s.lookup(req.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errUnknownRun.Error())
		return
	}
	writeStream(w, req, &r.hub, r.subscribe(), func() any { return r.Info() })
}

// writeStream is the one /stream writer, for runs and campaigns alike:
// it relays the events of ch (a subscription to h; nil when the owner was
// already terminal) as NDJSON, or as SSE frames under Accept:
// text/event-stream, then ends with final() — the authoritative post-run
// state, fetched from the registry rather than the hub so it cannot be
// dropped.
func writeStream(w http.ResponseWriter, req *http.Request, h *hub, ch chan []byte, final func() any) {
	sse := strings.Contains(req.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// Flush the header frame now: a subscriber must see the stream open
	// before the first event, which can be arbitrarily far away.
	if flusher != nil {
		flusher.Flush()
	}
	writeLine := func(blob []byte) {
		if sse {
			fmt.Fprintf(w, "data: %s\n\n", blob)
		} else {
			w.Write(blob)
			w.Write([]byte("\n"))
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if ch != nil {
		defer h.unsubscribe(ch)
	loop:
		for {
			select {
			case blob, open := <-ch:
				if !open {
					break loop
				}
				writeLine(blob)
			case <-req.Context().Done():
				return
			}
		}
	}
	blob, err := json.Marshal(final())
	if err != nil {
		return
	}
	writeLine(blob)
}
