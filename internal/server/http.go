package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
)

// apiError is the typed JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
	// Reason is a stable machine-readable discriminator: "queue_full",
	// "draining", "unknown_job", "bad_request", "conflict", "graph_damaged",
	// "internal".
	Reason string `json:"reason"`
}

// Handler builds the parahashd HTTP API over a Manager.
//
//	GET    /healthz               readiness (503 until recovery, and again while draining)
//	POST   /v1/jobs               submit a FASTQ/FASTA body; spec in query params
//	GET    /v1/jobs               list jobs
//	GET    /v1/jobs/{id}          job status
//	DELETE /v1/jobs/{id}          cancel a job
//	GET    /v1/jobs/{id}/query    k-mer membership/abundance (?kmer=ACGT...)
//	GET    /v1/jobs/{id}/graph    download the completed graph
//	GET    /v1/jobs/{id}/metrics  the job's parahash.metrics/v1 document
//	GET    /v1/stats              admission-gate and shedding counters
func Handler(m *Manager) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		switch {
		case m.Draining():
			http.Error(w, "draining", http.StatusServiceUnavailable)
		case !m.Ready():
			http.Error(w, "starting", http.StatusServiceUnavailable)
		default:
			fmt.Fprintln(w, "ok")
		}
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec, err := specFromQuery(r)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", err)
			return
		}
		rec, err := m.Submit(spec, r.Body)
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			// Typed load-shedding: the client backs off and retries; the
			// server never queues unboundedly toward an OOM. The hint
			// tracks how long admitted jobs have actually been waiting.
			w.Header().Set("Retry-After", strconv.Itoa(m.RetryAfterSeconds()))
			reason := "queue_full"
			if errors.Is(err, ErrDraining) {
				reason = "draining"
			}
			writeError(w, http.StatusTooManyRequests, reason, err)
		case err != nil:
			writeError(w, http.StatusBadRequest, "bad_request", err)
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusAccepted)
			writeJSON(w, rec)
		}
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.List())
	})

	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		rec, err := m.Get(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, "unknown_job", err)
			return
		}
		writeJSON(w, rec)
	})

	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		err := m.Cancel(r.PathValue("id"))
		if err != nil {
			writeError(w, http.StatusNotFound, "unknown_job", err)
			return
		}
		rec, _ := m.Get(r.PathValue("id"))
		writeJSON(w, rec)
	})

	mux.HandleFunc("GET /v1/jobs/{id}/query", func(w http.ResponseWriter, r *http.Request) {
		res, err := m.Query(r.PathValue("id"), r.URL.Query().Get("kmer"))
		switch {
		case err == nil:
			writeJSON(w, res)
		case errors.Is(err, ErrUnknownJob):
			writeError(w, http.StatusNotFound, "unknown_job", err)
		case errors.Is(err, ErrBadKmer):
			writeError(w, http.StatusBadRequest, "bad_request", err)
		case errors.Is(err, ErrJobNotDone):
			writeError(w, http.StatusConflict, "conflict", err)
		default:
			// The job is done and the question well-formed: its published
			// graph file is unreadable or failed its checks.
			writeError(w, http.StatusInternalServerError, "graph_damaged", err)
		}
	})

	mux.HandleFunc("GET /v1/jobs/{id}/graph", func(w http.ResponseWriter, r *http.Request) {
		serveJobFile(m, w, r, m.GraphPath(r.PathValue("id")))
	})

	mux.HandleFunc("GET /v1/jobs/{id}/metrics", func(w http.ResponseWriter, r *http.Request) {
		serveJobFile(m, w, r, m.MetricsPath(r.PathValue("id")))
	})

	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, m.Stats())
	})

	return mux
}

// serveJobFile serves one of a completed job's artifacts.
func serveJobFile(m *Manager, w http.ResponseWriter, r *http.Request, path string) {
	rec, err := m.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "unknown_job", err)
		return
	}
	if rec.State != StateDone {
		writeError(w, http.StatusConflict, "conflict",
			fmt.Errorf("server: job %s is %s, not done", rec.ID, rec.State))
		return
	}
	http.ServeFile(w, r, path)
}

// specFromQuery decodes the job spec from submission query parameters.
func specFromQuery(r *http.Request) (JobSpec, error) {
	var spec JobSpec
	q := r.URL.Query()
	for _, f := range []struct {
		name string
		dst  *int
	}{
		{"k", &spec.K},
		{"p", &spec.P},
		{"partitions", &spec.Partitions},
		{"filter", &spec.FilterMin},
	} {
		if v := q.Get(f.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return spec, fmt.Errorf("server: query param %s=%q must be a positive integer", f.name, v)
			}
			*f.dst = n
		}
	}
	spec.TableBackend = q.Get("table")
	if v := q.Get("deadline_secs"); v != "" {
		d, err := strconv.ParseFloat(v, 64)
		if err != nil || d <= 0 {
			return spec, fmt.Errorf("server: query param deadline_secs=%q must be a positive number", v)
		}
		spec.DeadlineSecs = d
	}
	return spec, nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, reason string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: err.Error(), Reason: reason})
}
