// Package api is the wire layer of the allocation service: the
// /v1/allocate request/response types, their two interchangeable
// encodings (JSON, the default, and a compact binary codec negotiated
// via Content-Type/Accept), and the HTTP handler copaserve mounts.
//
// It exists as its own package because three binaries speak this
// protocol: copaserve terminates it, coparouter parses requests just
// far enough to consistent-hash them across backends, and copaload
// generates them. Keeping the types and codecs here means a field
// added to the request is added for all three at once.
package api

import (
	"errors"
	"fmt"
	"math"
	"time"

	"copa/internal/cliflags"
	"copa/internal/serve"
	"copa/internal/strategy"
)

// Media types the allocate endpoint negotiates. JSON is the default;
// the binary codec is opt-in per request via Content-Type (request
// body) and Accept (response body).
const (
	ContentTypeJSON   = "application/json"
	ContentTypeBinary = "application/x-copa-bin"
)

// AllocateRequest is the POST /v1/allocate body. Scenario, mode and
// impairments use the same names as the CLI flags.
type AllocateRequest struct {
	Scenario     string  `json:"scenario"`
	Seed         int64   `json:"seed"`
	Mode         string  `json:"mode,omitempty"`
	Impairments  string  `json:"impairments,omitempty"`
	CSIAgeMS     float64 `json:"csi_age_ms,omitempty"`
	MultiDecoder bool    `json:"multi_decoder,omitempty"`
	// Session mode: TimeMS is the controller time of a long-running
	// session; the server derives the CSI epoch and age bucket from it
	// (csi_age_ms is ignored) and the reply carries the allocation's
	// epoch and validity horizon.
	Session bool    `json:"session,omitempty"`
	TimeMS  float64 `json:"time_ms,omitempty"`
}

// Outcome is one strategy's evaluation in wire form.
type Outcome struct {
	Strategy     string     `json:"strategy"`
	Concurrent   bool       `json:"concurrent"`
	SDA          bool       `json:"sda,omitempty"`
	PerClientBps [2]float64 `json:"per_client_bps"`
	PredictedBps [2]float64 `json:"predicted_bps"`
	AggregateBps float64    `json:"aggregate_bps"`
}

// ToOutcome converts an evaluated strategy outcome to wire form.
func ToOutcome(o strategy.Outcome) Outcome {
	return Outcome{
		Strategy:     o.Kind.String(),
		Concurrent:   o.Concurrent,
		SDA:          o.SDA,
		PerClientBps: o.PerClient,
		PredictedBps: o.Predicted,
		AggregateBps: o.Aggregate(),
	}
}

// AllocateResponse is the POST /v1/allocate reply.
type AllocateResponse struct {
	Cached    bool  `json:"cached"`
	AgeBucket int   `json:"age_bucket"`
	Epoch     int64 `json:"epoch,omitempty"`
	// ValidUntilMS is the session controller time at which this
	// allocation's age bucket expires (session mode only).
	ValidUntilMS float64            `json:"valid_until_ms,omitempty"`
	Selected     Outcome            `json:"selected"`
	Outcomes     map[string]Outcome `json:"outcomes"`
}

// ErrorResponse is every non-2xx body. Errors are always JSON,
// whatever encoding the request negotiated.
type ErrorResponse struct {
	Error string `json:"error"`
}

// ParseRequest maps the wire request onto a serve.Request.
func ParseRequest(ar AllocateRequest) (serve.Request, error) {
	var req serve.Request
	sc, err := cliflags.ParseScenario(ar.Scenario)
	if err != nil {
		return req, err
	}
	mode := strategy.ModeMax
	if ar.Mode != "" {
		if mode, err = cliflags.ParseMode(ar.Mode); err != nil {
			return req, err
		}
	}
	imp, err := cliflags.ParseImpairments(ar.Impairments)
	if err != nil {
		return req, err
	}
	csiAge, err := durationMS("csi_age_ms", ar.CSIAgeMS)
	if err != nil {
		return req, err
	}
	t, err := durationMS("time_ms", ar.TimeMS)
	if err != nil {
		return req, err
	}
	if ar.TimeMS > 0 && !ar.Session {
		return req, fmt.Errorf("time_ms requires session mode")
	}
	req = serve.Request{
		Scenario:     sc,
		Seed:         ar.Seed,
		Mode:         mode,
		Impairments:  imp,
		CSIAge:       csiAge,
		MultiDecoder: ar.MultiDecoder,
		Session:      ar.Session,
		Time:         t,
	}
	return req, nil
}

// ErrTimeRange rejects a csi_age_ms or time_ms that is negative, not
// finite, or longer than a time.Duration can hold. The binary codec
// carries any float64, so this is the one check both codecs pass
// through; the HTTP handlers answer it with 400.
var ErrTimeRange = errors.New("time out of range")

// durationMS converts a wire millisecond count to a Duration.
func durationMS(field string, ms float64) (time.Duration, error) {
	ns := ms * float64(time.Millisecond)
	// float64(math.MaxInt64) is 2^63, so every ns below it converts
	// without overflow; NaN fails both comparisons.
	if !(ns >= 0 && ns < float64(math.MaxInt64)) {
		return 0, fmt.Errorf("%w: %s %g", ErrTimeRange, field, ms)
	}
	return time.Duration(ns), nil
}

// ToResponse converts a served result to wire form.
func ToResponse(res *serve.Result, cached bool) AllocateResponse {
	resp := AllocateResponse{
		Cached:       cached,
		AgeBucket:    res.AgeBucket,
		Epoch:        res.Epoch,
		ValidUntilMS: float64(res.ValidUntil) / float64(time.Millisecond),
		Selected:     ToOutcome(res.Selected),
		Outcomes:     make(map[string]Outcome, len(res.Outcomes)),
	}
	for k, o := range res.Outcomes {
		resp.Outcomes[k.String()] = ToOutcome(o)
	}
	return resp
}
