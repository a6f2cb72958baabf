package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sstiming/internal/benchgen"
	"sstiming/internal/prechar"
)

// benchAnalyzeBody is a windows-on /analyze request for the c7552
// stand-in, the largest response the serve benchmark asks for.
func benchAnalyzeBody(b *testing.B) []byte {
	p, _ := benchgen.ProfileByName("c7552")
	c, err := benchgen.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(AnalyzeRequest{Netlist: sb.String(), Windows: true})
	if err != nil {
		b.Fatal(err)
	}
	return body
}

// benchServer is an in-process server with the cache on and its handler.
func benchServer(b *testing.B) http.Handler {
	s, err := New(Options{Lib: prechar.MustLibrary(), CacheEntries: 16})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = s.Drain(context.Background()) })
	return s.Handler()
}

// serveAnalyze posts body to h and returns the recorded answer.
func serveAnalyze(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/analyze", bytes.NewReader(body)))
	return rec
}

// BenchmarkAnalyzeHit is a raw-alias cache hit on the windows-on c7552
// response: decode the request, key it, splice and write the cached bytes.
func BenchmarkAnalyzeHit(b *testing.B) {
	h := benchServer(b)
	body := benchAnalyzeBody(b)
	if rec := serveAnalyze(h, body); rec.Code != http.StatusOK {
		b.Fatalf("warm-up answered %d: %.200s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveAnalyze(h, body); rec.Header().Get("X-Cache") != "hit" {
			b.Fatalf("X-Cache %q, want hit", rec.Header().Get("X-Cache"))
		}
	}
}

// BenchmarkAnalyzeEncode is the one encode a miss pays for the windows-on
// c7552 response: the indented encoding, the middle copy and the weight.
func BenchmarkAnalyzeEncode(b *testing.B) {
	rec := serveAnalyze(benchServer(b), benchAnalyzeBody(b))
	var resp AnalyzeResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		b.Fatal(err)
	}
	resp.RequestID, resp.ElapsedMs = "", 0
	b.SetBytes(int64(rec.Body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := encodeBody(&resp); err != nil {
			b.Fatal(err)
		}
	}
}
