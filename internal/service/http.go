package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
)

// Routes mounts the session API on mux:
//
//	POST /v1/sessions — open a session; the body is a SessionSpec, the
//	                    response a JSONL stream of per-probe results.
//	                    429 + Retry-After when saturated, 503 draining.
//	GET  /v1/sessions — list known sessions as JSON.
//
// The result stream carries no server-assigned identifiers or wall-clock
// values: it is a pure function of the spec, byte-identical whatever the
// server's worker count or load (the session ID travels only in the
// X-Session-Id response header and the list endpoint).
func Routes(mux *http.ServeMux, m *Manager) {
	mux.HandleFunc("/v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			handleOpen(w, r, m)
		case http.MethodGet:
			handleList(w, m)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// Stream line shapes. Field order (and Go's deterministic struct-order
// JSON encoding) is part of the byte-identity contract.
type acceptedLine struct {
	Type      string   `json:"type"` // "accepted"
	Name      string   `json:"name,omitempty"`
	Trials    int      `json:"trials"`
	Probes    int      `json:"probes"`
	Attackers []string `json:"attackers"`
	HorizonS  float64  `json:"horizonSec"`
}

type probeLine struct {
	Type     string `json:"type"` // "probe"
	Trial    int    `json:"trial"`
	Attacker string `json:"attacker"`
	I        int    `json:"i"`
	Flow     int    `json:"flow"`
	Outcome  string `json:"outcome"` // classified "hit" / "miss"
	Lost     bool   `json:"lost,omitempty"`
}

type verdictLine struct {
	Type     string `json:"type"` // "verdict"
	Trial    int    `json:"trial"`
	Attacker string `json:"attacker"`
	Verdict  string `json:"verdict"` // "present" / "absent"
	Truth    string `json:"truth"`
	Correct  bool   `json:"correct"`
}

type resultLine struct {
	Type     string             `json:"type"` // "result"
	Trials   int                `json:"trials"`
	Accuracy map[string]float64 `json:"accuracy"`
}

type errorLine struct {
	Type  string `json:"type"` // "error"
	Error string `json:"error"`
}

// maxSpecBytes bounds a POST /v1/sessions body. A session spec is a few
// hundred bytes; the bound stops one request from making the daemon
// buffer an arbitrarily large document.
const maxSpecBytes = 1 << 20

func handleOpen(w http.ResponseWriter, r *http.Request, m *Manager) {
	var spec SessionSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad session spec: "+err.Error(), code)
		return
	}
	sess, err := m.Open(spec)
	switch {
	case errors.Is(err, ErrSaturated):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer m.CloseSession(sess)
	// A dropped client cancels the session so its remaining trials stop
	// consuming scheduler rounds.
	stop := context.AfterFunc(r.Context(), sess.Cancel)
	defer stop()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Session-Id", sess.ID)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)

	names := sess.Names()
	_ = enc.Encode(acceptedLine{
		Type:      "accepted",
		Name:      spec.Name,
		Trials:    spec.Target.Trials,
		Probes:    spec.Target.Probes,
		Attackers: names,
		HorizonS:  sess.Horizon(),
	})
	if flusher != nil {
		flusher.Flush()
	}

	correct := make(map[string]int, len(names))
	trials := 0
	for {
		res, ok, err := sess.Next()
		if err != nil {
			_ = enc.Encode(errorLine{Type: "error", Error: err.Error()})
			return
		}
		if !ok {
			break
		}
		trials++
		m.MergeDetectors(res.Detectors)
		for _, att := range res.Attackers {
			for i, f := range att.Probes {
				pl := probeLine{
					Type:     "probe",
					Trial:    res.Trial,
					Attacker: att.Name,
					I:        i,
					Flow:     int(f),
					Outcome:  hitMiss(i < len(att.Outcomes) && att.Outcomes[i]),
				}
				if i < len(att.Lost) && att.Lost[i] {
					pl.Lost = true
				}
				_ = enc.Encode(pl)
			}
			ok := att.Verdict == res.Truth
			if ok {
				correct[att.Name]++
			}
			_ = enc.Encode(verdictLine{
				Type:     "verdict",
				Trial:    res.Trial,
				Attacker: att.Name,
				Verdict:  presence(att.Verdict),
				Truth:    presence(res.Truth),
				Correct:  ok,
			})
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	acc := make(map[string]float64, len(names))
	for _, n := range names {
		if trials > 0 {
			acc[n] = float64(correct[n]) / float64(trials)
		}
	}
	_ = enc.Encode(resultLine{Type: "result", Trials: trials, Accuracy: acc})
	if flusher != nil {
		flusher.Flush()
	}
}

func handleList(w http.ResponseWriter, m *Manager) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(m.Sessions())
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func presence(present bool) string {
	if present {
		return "present"
	}
	return "absent"
}
