package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"copa/internal/serve"
)

func testServer(t *testing.T) *serve.Server {
	t.Helper()
	srv := serve.New(serve.Config{Workers: 1, CacheEntries: 32, Coherence: 10 * time.Millisecond})
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestContentNegotiation drives one request through every codec
// pairing and checks the decoded payloads agree: the codec is a
// transport detail, never a semantic one.
func TestContentNegotiation(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testServer(t)))
	defer ts.Close()

	ar := AllocateRequest{Scenario: "4x2", Seed: 3}
	jsonBody, err := json.Marshal(ar)
	if err != nil {
		t.Fatal(err)
	}
	binBody, err := EncodeRequestBinary(ar)
	if err != nil {
		t.Fatal(err)
	}

	post := func(body []byte, contentType, accept string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/allocate", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp, buf.Bytes()
	}

	// JSON in, JSON out (the default pairing).
	resp, body := post(jsonBody, ContentTypeJSON, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json request: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeJSON {
		t.Fatalf("json request: content type %q", ct)
	}
	var viaJSON AllocateResponse
	if err := json.Unmarshal(body, &viaJSON); err != nil {
		t.Fatal(err)
	}
	if viaJSON.Selected.Strategy == "" {
		t.Fatal("json response missing selected strategy")
	}

	// Binary in, binary out.
	resp, body = post(binBody, ContentTypeBinary, ContentTypeBinary)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary request: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeBinary {
		t.Fatalf("binary request: content type %q", ct)
	}
	viaBin, err := DecodeResponseBinary(body)
	if err != nil {
		t.Fatal(err)
	}
	// Both decoders saw the same cached result.
	if viaBin.Selected != viaJSON.Selected || viaBin.Epoch != viaJSON.Epoch {
		t.Fatalf("codecs disagree: binary %+v json %+v", viaBin.Selected, viaJSON.Selected)
	}
	if !viaBin.Cached {
		t.Error("second request for the same key was not served from cache")
	}

	// Binary in, JSON out: Accept wins independently of Content-Type.
	resp, body = post(binBody, ContentTypeBinary, ContentTypeJSON)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mixed request: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &viaJSON); err != nil {
		t.Fatalf("mixed request: body is not JSON: %v", err)
	}

	// Malformed binary body is a 400, and errors are always JSON so
	// every client can parse them.
	resp, body = post([]byte{0xff, 0x01}, ContentTypeBinary, ContentTypeBinary)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage binary: status %d", resp.StatusCode)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("error body not JSON error: %v %q", err, body)
	}
}

func TestHealthzExposesCacheStats(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testServer(t)))
	defer ts.Close()

	for i := 0; i < 2; i++ { // second hit is a cache hit
		resp, err := http.Post(ts.URL+"/v1/allocate", ContentTypeJSON,
			bytes.NewReader([]byte(`{"scenario":"4x2","seed":1}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz HealthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Cache.Misses < 1 || hz.Cache.Hits < 1 {
		t.Errorf("cache stats not populated: %+v", hz.Cache)
	}
	if hz.Cache.Entries < 1 || hz.Cache.Capacity < 1 {
		t.Errorf("cache occupancy not populated: %+v", hz.Cache)
	}
}

// TestParseRequestRejectsBadTimes feeds out-of-range csi_age_ms and
// session time_ms through both codecs. Each must fail ParseRequest with
// ErrTimeRange and get a 400, never be served from age bucket 0 as
// fresh CSI. JSON has no NaN or ±Inf literal, so those values travel
// only in the binary codec.
func TestParseRequestRejectsBadTimes(t *testing.T) {
	ts := httptest.NewServer(NewHandler(testServer(t)))
	defer ts.Close()

	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 1e300, 1e13}
	for _, field := range []string{"csi_age_ms", "time_ms"} {
		for _, v := range values {
			ar := AllocateRequest{Scenario: "4x2", Seed: 3}
			if field == "csi_age_ms" {
				ar.CSIAgeMS = v
			} else {
				ar.Session, ar.TimeMS = true, v
			}
			bodies := map[string][]byte{}
			bin, err := EncodeRequestBinary(ar)
			if err != nil {
				t.Fatal(err)
			}
			bodies[ContentTypeBinary] = bin
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				js, err := json.Marshal(ar)
				if err != nil {
					t.Fatal(err)
				}
				bodies[ContentTypeJSON] = js
			}
			for ct, body := range bodies {
				decoded, err := DecodeRequestBody(ct, body)
				if err != nil {
					t.Fatalf("%s=%g via %s: decode: %v", field, v, ct, err)
				}
				if _, err := ParseRequest(decoded); !errors.Is(err, ErrTimeRange) {
					t.Errorf("%s=%g via %s: ParseRequest error %v, want ErrTimeRange", field, v, ct, err)
				}
				resp, err := http.Post(ts.URL+"/v1/allocate", ct, bytes.NewReader(body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s=%g via %s: status %d, want 400", field, v, ct, resp.StatusCode)
				}
			}
		}
	}

	// The largest representable age still parses.
	if _, err := ParseRequest(AllocateRequest{Scenario: "4x2", CSIAgeMS: 9e12}); err != nil {
		t.Errorf("csi_age_ms=9e12: %v", err)
	}
}
