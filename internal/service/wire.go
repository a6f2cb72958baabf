package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"sstiming/internal/reqcache"
)

// The cacheable responses (/analyze and /refine) are encoded once, on the
// miss, and every answer — the miss itself, a raw alias hit, a canonical
// hit, a coalesced follower — splices its own identity fields around those
// bytes. Both response types open with request_id and close with
// elapsed_ms, so writeJSON's indented encoding of a response whose identity
// fields are zero is
//
//	wireHead `""` middle `0` wireTail
//
// and the body for any (id, elapsed) is wireHead + JSON(id) + middle +
// JSON(elapsed) + wireTail, byte for byte what writeJSON would produce for
// the restamped struct.
const (
	wireHead = "{\n  \"request_id\": "
	wireTail = "\n}\n"
)

// errEncode marks a response that could not be encoded (a NaN or infinity
// reached a float field). It answers 500 "internal" and is never cached.
var errEncode = errors.New("encoding response")

// encodeBody encodes v, a response with request_id "" and elapsed_ms 0, the
// way writeJSON does and returns the middle between the identity values
// plus the cache weight: the length of v's compact JSON encoding.
func encodeBody(v any) ([]byte, int64, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", errEncode, err)
	}
	b := buf.Bytes()
	head, tail := wireHead+`""`, "0"+wireTail
	if !bytes.HasPrefix(b, []byte(head)) || !bytes.HasSuffix(b, []byte(tail)) {
		return nil, 0, fmt.Errorf("%w: %T does not open with request_id and close with elapsed_ms", errEncode, v)
	}
	// Copy out the middle so the cache holds exactly its bytes, not the
	// encoder's doubled buffer.
	return bytes.Clone(b[len(head) : len(b)-len(tail)]), compactLen(b), nil
}

// compactLen returns the length b would have as compact JSON: its length
// minus the whitespace outside string literals. encoding/json's indented
// form is its compact form with only such whitespace inserted, and inside
// a string it escapes every whitespace byte but the space.
func compactLen(b []byte) int64 {
	n := int64(len(b))
	inString, escaped := false, false
	for _, c := range b {
		switch {
		case escaped:
			escaped = false
		case inString:
			if c == '\\' {
				escaped = true
			} else if c == '"' {
				inString = false
			}
		case c == '"':
			inString = true
		case c == ' ', c == '\n', c == '\t', c == '\r':
			n--
		}
	}
	return n
}

// spliceBody appends the full body for (id, elapsedMs) around the encoded
// middle to dst. The two values go through encoding/json itself, so their
// escaping and float form are writeJSON's by construction; elapsedMs is
// always finite.
func spliceBody(dst []byte, id string, elapsedMs float64, middle []byte) []byte {
	idJSON, _ := json.Marshal(id)
	elapsedJSON, _ := json.Marshal(elapsedMs)
	dst = append(dst, wireHead...)
	dst = append(dst, idJSON...)
	dst = append(dst, middle...)
	dst = append(dst, elapsedJSON...)
	return append(dst, wireTail...)
}

// writeEncoded answers 200 with the body spliced around middle, in one
// Write with Content-Length set. elapsed_ms is stamped here, as late as the
// body allows.
func writeEncoded(w http.ResponseWriter, status reqcache.Status, id string, start time.Time, middle []byte) {
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	body := spliceBody(make([]byte, 0, len(wireHead)+len(id)+len(middle)+32+len(wireTail)), id, elapsed, middle)
	h := w.Header()
	h.Set("X-Cache", status.String())
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
