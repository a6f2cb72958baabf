package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/engine"
	"sstiming/internal/reqcache"
)

// wireCase is one cacheable request shape, posted with a netlist filled in.
type wireCase struct {
	name string
	ep   string
	body map[string]any
}

// with returns a copy of the case's request body carrying netlist src.
func (tc wireCase) with(src string) map[string]any {
	body := map[string]any{"netlist": src}
	for k, v := range tc.body {
		body[k] = v
	}
	return body
}

// decode parses a body of the case's endpoint into its response struct.
func (tc wireCase) decode(t *testing.T, raw []byte) any {
	t.Helper()
	var v any = &AnalyzeResponse{}
	if tc.ep == "/refine" {
		v = &RefineResponse{}
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatal(err)
	}
	return v
}

// wireCases are the request shapes across endpoints, modes and options
// whose c17 bodies testdata/wire pins byte for byte; the cache-equivalence
// table posts them too.
var wireCases = []wireCase{
	{"analyze-proposed", "/analyze", map[string]any{}},
	{"analyze-windows", "/analyze", map[string]any{"windows": true}},
	{"analyze-pin-to-pin", "/analyze", map[string]any{"mode": "pin-to-pin", "windows": true}},
	{"analyze-nc-extension", "/analyze", map[string]any{"nc_extension": true, "windows": true}},
	{"refine-cube", "/refine", map[string]any{"cube": map[string]string{"1": "01", "2": "11"}}},
	{"refine-nets-filter", "/refine", map[string]any{"cube": map[string]string{"1": "01"}, "nets": []string{"22", "23"}}},
}

var (
	maskRequestID = regexp.MustCompile(`(?m)^  "request_id": ".*",$`)
	maskElapsed   = regexp.MustCompile(`(?m)^  "elapsed_ms": [-+.0-9eE]+$`)
)

// maskIdentity replaces the request_id and elapsed_ms values of an
// indented /analyze or /refine body with "" and 0, leaving every other
// byte as served.
func maskIdentity(raw []byte) []byte {
	raw = maskRequestID.ReplaceAll(raw, []byte(`  "request_id": "",`))
	return maskElapsed.ReplaceAll(raw, []byte(`  "elapsed_ms": 0`))
}

// TestWireGolden pins the raw /analyze and /refine bodies byte for byte,
// field order and indentation included, with only the identity values
// masked. The cold run, a byte-identical re-post (raw alias hit) and a
// gate-shuffled re-post (canonical hit) must all match the golden file.
func TestWireGolden(t *testing.T) {
	src := benchText(t, benchgen.C17())
	for _, tc := range wireCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "wire", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			_, hs := newTestServer(t, Options{CacheEntries: 64})
			body := tc.with(src)
			shuffled := tc.with(shuffleGateLines(t, rand.New(rand.NewSource(1)), src))
			for i, post := range []struct {
				body  map[string]any
				cache string
			}{{body, "miss"}, {body, "hit"}, {shuffled, "hit"}} {
				resp, raw := postJSON(t, hs.URL+tc.ep, post.body)
				if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != post.cache {
					t.Fatalf("post %d: status %d X-Cache %q, want 200 %s: %s",
						i, resp.StatusCode, resp.Header.Get("X-Cache"), post.cache, raw)
				}
				if got := maskIdentity(raw); !bytes.Equal(got, want) {
					t.Fatalf("post %d (%s) differs from testdata/wire/%s.json:\n got: %s\nwant: %s",
						i, post.cache, tc.name, got, want)
				}
				if !json.Valid(raw) {
					t.Fatalf("post %d is not valid JSON", i)
				}
			}
		})
	}
}

// goldenResponses decodes the golden bodies back into their response
// structs (identity fields zero). Floats round-trip exactly and map keys
// re-sort, so re-encoding one reproduces its golden bytes.
func goldenResponses(t *testing.T) map[string]any {
	t.Helper()
	out := map[string]any{}
	for _, tc := range wireCases {
		raw, err := os.ReadFile(filepath.Join("testdata", "wire", tc.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		out[tc.name] = tc.decode(t, raw)
	}
	// Strings that exercise the weight scan: spaces, escapes and quotes
	// inside string literals.
	out["refine-awkward-strings"] = &RefineResponse{
		Circuit: CircuitJSON{Name: "a \"quoted\" name\twith \\ escapes <&>\n"},
		Cube:    " x = \"1\" ",
		Lines:   map[string]RefineLineJSON{"n \\\"": {Value: "x x", SRise: "\\", SFall: `"`}},
	}
	return out
}

// writeJSONBody is what writeJSON answers for v.
func writeJSONBody(v any) []byte {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, v)
	return rec.Body.Bytes()
}

// restamp returns a copy of a response with its identity fields set.
func restamp(v any, id string, elapsed float64) any {
	switch r := v.(type) {
	case *AnalyzeResponse:
		c := *r
		c.RequestID, c.ElapsedMs = id, elapsed
		return &c
	case *RefineResponse:
		c := *r
		c.RequestID, c.ElapsedMs = id, elapsed
		return &c
	}
	panic("not a cacheable response")
}

// TestWireSplice: for ids that need JSON escaping and elapsed times in
// both of encoding/json's float forms, the spliced body equals writeJSON of
// the restamped struct, byte for byte, for both response types.
func TestWireSplice(t *testing.T) {
	ids := []string{"", "r0000abcd-000001", "a<b", "x&y>z", `q"uote`, `back\slash`, "tab\tnl\n", "\x01ctl", "ünï\u2028", "\xff bad utf8"}
	elapsed := []float64{0, 5e-7, 1234.5, 0.123456, 1e-6, 9.99e-7, 2.5e-9, 3, 1e20, 1e21, 7.25e22, 0.000001234}
	for name, v := range goldenResponses(t) {
		middle, _, err := encodeBody(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, id := range ids {
			for _, el := range elapsed {
				got := spliceBody(nil, id, el, middle)
				want := writeJSONBody(restamp(v, id, el))
				if !bytes.Equal(got, want) {
					t.Fatalf("%s id %q elapsed %g:\nspliced: %s\nwriteJSON: %s", name, id, el, got, want)
				}
			}
		}
	}
}

// TestWireWeight: the cache weight read off the indented encoding equals
// the compact encoding's length, len(json.Marshal(resp)), for both response
// types — and a served entry carries exactly that weight.
func TestWireWeight(t *testing.T) {
	for name, v := range goldenResponses(t) {
		_, weight, err := encodeBody(v)
		if err != nil {
			t.Fatal(err)
		}
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if weight != int64(len(compact)) {
			t.Errorf("%s: weight %d, compact JSON %d bytes", name, weight, len(compact))
		}
	}

	src := benchText(t, benchgen.C17())
	for _, tc := range wireCases {
		s, hs := newTestServer(t, Options{CacheEntries: 8})
		_, raw := postJSON(t, hs.URL+tc.ep, tc.with(src))
		compact, _ := json.Marshal(restamp(tc.decode(t, raw), "", 0))
		if got := s.cache.Bytes(); got != int64(len(compact)) {
			t.Errorf("%s: resident weight %d, compact JSON %d bytes", tc.name, got, len(compact))
		}
	}
}

// TestWireNoOutputs: a netlist without OUTPUT lines has no primary-output
// arrival range, so /analyze refuses it with a 422 before any cache flight
// (it used to answer 200 with an empty body and cache that). /refine
// reports every line's windows, needs no output, and keeps serving it.
func TestWireNoOutputs(t *testing.T) {
	met := engine.NewMetrics()
	s, hs := newTestServer(t, Options{CacheEntries: 8, Metrics: met})
	body := map[string]any{"netlist": "INPUT(a)\nb = NOT(a)\n", "windows": true}
	for i := 0; i < 2; i++ {
		resp, raw := postJSON(t, hs.URL+"/analyze", body)
		if resp.StatusCode != http.StatusUnprocessableEntity || resp.Header.Get("X-Cache") != "" {
			t.Fatalf("/analyze #%d: status %d X-Cache %q, want 422 and no cache status: %s",
				i, resp.StatusCode, resp.Header.Get("X-Cache"), raw)
		}
		var e ErrorJSON
		if err := json.Unmarshal(raw, &e); err != nil || e.Kind != "bad-request" || !strings.Contains(e.Error, "OUTPUT") {
			t.Fatalf("/analyze #%d: error body %s (%v)", i, raw, err)
		}
	}
	if s.cache.Len() != 0 || met.Get(engine.CacheMisses) != 0 {
		t.Fatalf("rejected netlist reached the cache: %d entries, %d misses", s.cache.Len(), met.Get(engine.CacheMisses))
	}

	var first []byte
	for i, want := range []string{"miss", "hit"} {
		resp, raw := postJSON(t, hs.URL+"/refine", body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != want || !json.Valid(raw) {
			t.Fatalf("/refine #%d: status %d X-Cache %q, want 200 %s: %s", i, resp.StatusCode, resp.Header.Get("X-Cache"), want, raw)
		}
		if first == nil {
			first = maskIdentity(raw)
		} else if !bytes.Equal(maskIdentity(raw), first) {
			t.Fatal("/refine hit differs from its cold run")
		}
	}
}

// TestWireEncodeFailure: a response that cannot be encoded answers 500
// "internal" with a JSON error body, both from writeJSON and from a cache
// compute, and the failed compute is never cached.
func TestWireEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, &AnalyzeResponse{MinPOArrival: math.Inf(1)})
	var e ErrorJSON
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Kind != "internal" {
		t.Fatalf("writeJSON of +Inf: status %d body %q, want 500 kind internal", rec.Code, rec.Body.String())
	}

	s, _ := newTestServer(t, Options{CacheEntries: 8})
	key := reqcache.KeyFrom("encode-failure")
	builds := 0
	for _, bad := range []any{
		&AnalyzeResponse{MaxPOArrival: math.Inf(-1)},
		&RefineResponse{Lines: map[string]RefineLineJSON{"n": {Rise: &WindowJSON{AL: math.NaN()}}}},
	} {
		for i := 0; i < 2; i++ {
			_, _, err := s.cached(context.Background(), key, "fp", func(context.Context) (any, error) {
				builds++
				return bad, nil
			})
			if !errors.Is(err, errEncode) {
				t.Fatalf("%T compute error = %v, want errEncode", bad, err)
			}
			rec := httptest.NewRecorder()
			s.respondJobError(rec, "r1", err)
			if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Kind != "internal" {
				t.Fatalf("job error answered %d %q, want 500 kind internal", rec.Code, rec.Body.String())
			}
		}
	}
	if builds != 4 || s.cache.Len() != 0 {
		t.Fatalf("%d builds for 4 calls, %d entries resident: a failed encode was cached", builds, s.cache.Len())
	}
}
