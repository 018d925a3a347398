package cluster

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"

	"texid/internal/wire"
)

// Request and response bodies of the record-carrying endpoints.
//
// A search body is JSON around a base64 record, 1.33× the record's size,
// and encoding/json's scanner reads it a byte at a time, about as long as
// the engine pass takes to search it. So readBody reads the whole body
// once, and the exact bytes encoding/json's Encoder writes for this
// package's request types are recognised and base64-decoded in place. Every other body goes
// through encoding/json (decodeRecordJSON, decodeBatchJSON), which is also
// the oracle the recognised forms are held to (FuzzRequestBody).
//
// Nothing sized by a request outlives it: no sync.Pool, freelist or
// per-connection scratch holds a body, its base64 or a record, because a
// pooled entry survives one GC as a victim and shows as live heap. For the
// same reason search answers are written by appendSearchResponse rather
// than by encoding/json, whose process-wide encodeState pool keeps the
// largest buffer any caller in the process encoded into.

// readBody reads the whole request body into one buffer. The limit bounds
// the whole body, not just its first JSON value. Content-Length is a claim
// until the bytes arrive: it sizes the buffer only up to reserve, and past
// that the buffer doubles as the body arrives, so a client that claims a
// large body and sends little pins at most twice what it sent. On an
// oversized body it answers 413, on a failed read 400, and returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit, reserve int64) ([]byte, bool) {
	claim := r.ContentLength // -1 when unknown
	if claim > limit {
		claim = -1 // a 413 once limit+1 bytes are read
	}
	size := int64(512)
	if claim >= 0 {
		size = min(claim, reserve)
	}
	// The spare byte lets the read that reports EOF land without a grow.
	body := make([]byte, 0, size+1)
	rd := http.MaxBytesReader(w, r.Body, limit)
	for {
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, true
		}
		if err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes", limit))
			} else {
				httpError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
			}
			return nil, false
		}
		if len(body) == cap(body) {
			grow := len(body) // double, but not past the claim
			if rest := int(claim) + 1 - len(body); rest > 0 {
				grow = min(grow, rest)
			}
			body = slices.Grow(body, grow)
		}
	}
}

// decodeRecordBody decodes the body add, update and search share: a
// textureRequest around a base64 feature record, a non-zero JSON id
// overriding the record's own. It decodes a recognised body in place, so
// body is scratch afterwards. The error text is the 400's message.
func decodeRecordBody(body []byte) (*wire.FeatureRecord, error) {
	id, b64, ok := recogniseRecord(body)
	if !ok {
		return decodeRecordJSON(body)
	}
	rec, err := decodeRecordInPlace(b64)
	if err != nil {
		return nil, err
	}
	if id != 0 {
		rec.ID = int64(id)
	}
	return rec, nil
}

// decodeRecordJSON is decodeRecordBody through encoding/json.
func decodeRecordJSON(body []byte) (*wire.FeatureRecord, error) {
	var req textureRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	rec, err := decodeRecord(req.RecordB64)
	if err != nil {
		return nil, err
	}
	if req.ID != 0 {
		rec.ID = int64(req.ID)
	}
	return rec, nil
}

// decodeBatchBody decodes a /v1/search/batch body, in place when it is
// recognised. The error text is the 400's message.
func decodeBatchBody(body []byte) ([]*wire.FeatureRecord, error) {
	if b64s, ok := recogniseBatch(body); ok {
		return decodeEach(b64s, decodeRecordInPlace)
	}
	return decodeBatchJSON(body)
}

// decodeBatchJSON is decodeBatchBody through encoding/json.
func decodeBatchJSON(body []byte) ([]*wire.FeatureRecord, error) {
	var req batchSearchRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	return decodeEach(req.RecordsB64, decodeRecord)
}

// decodeEach decodes a batch's records in order, failing on the first bad
// one.
func decodeEach[S string | []byte](b64s []S, decode func(S) (*wire.FeatureRecord, error)) ([]*wire.FeatureRecord, error) {
	if len(b64s) == 0 || len(b64s) > maxBatchRecords {
		return nil, fmt.Errorf("records_b64 must hold 1..%d records", maxBatchRecords)
	}
	recs := make([]*wire.FeatureRecord, len(b64s))
	for i, b64 := range b64s {
		rec, err := decode(b64)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		recs[i] = rec
	}
	return recs, nil
}

// decodeRecord turns a request-body base64 blob into a feature record: the
// blob is attacker-controlled, so every length inside it is hostile until
// wire.Decode's limits checks have run.
func decodeRecord(b64 string) (*wire.FeatureRecord, error) {
	if b64 == "" {
		return nil, fmt.Errorf("missing record_b64")
	}
	raw, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, fmt.Errorf("bad base64: %w", err)
	}
	return decodeWire(raw)
}

// decodeRecordInPlace is decodeRecord over a recognised base64 string,
// which is never empty, decoded into the string's own bytes.
func decodeRecordInPlace(b64 []byte) (*wire.FeatureRecord, error) {
	raw, err := decodeBase64InPlace(b64)
	if err != nil {
		return nil, fmt.Errorf("bad base64: %w", err)
	}
	return decodeWire(raw)
}

func decodeWire(raw []byte) (*wire.FeatureRecord, error) {
	rec, err := wire.Decode(raw)
	if err != nil {
		return nil, fmt.Errorf("bad feature record: %w", err)
	}
	return rec, nil
}

// b64Chunk is how many base64 characters decodeBase64InPlace decodes per
// step. It is whole quanta, so every chunk boundary is a quantum boundary.
const b64Chunk = 4 << 10

// decodeBase64InPlace decodes s, which holds only cutB64's alphabet with
// '=' at most in its last two bytes, into s's own prefix. Every chunk but
// the last is then whole quanta of alphabet bytes and decodes cleanly, and
// an error in the last, rebased by the chunk's offset, is the one
// base64.StdEncoding.DecodeString reports for all of s. Each chunk decodes
// into a stack buffer before it is copied down, so no write overtakes the
// read.
func decodeBase64InPlace(s []byte) ([]byte, error) {
	var buf [b64Chunk / 4 * 3]byte
	w := 0
	for r := 0; r < len(s); r += b64Chunk {
		n, err := base64.StdEncoding.Decode(buf[:], s[r:min(r+b64Chunk, len(s))])
		if err != nil {
			var at base64.CorruptInputError
			if errors.As(err, &at) {
				err = base64.CorruptInputError(r) + at
			}
			return nil, err
		}
		w += copy(s[w:], buf[:n])
	}
	return s[:w], nil
}

// recogniseRecord matches the bodies json.Encoder writes for a
// textureRequest whose RecordB64 needs no unescaping:
// {"record_b64":"S"} or {"id":N,"record_b64":"S"} with N non-zero,
// followed by JSON whitespace only. On a match encoding/json would decode
// the same id and string, so the caller may skip it.
func recogniseRecord(body []byte) (id int, b64 []byte, ok bool) {
	rest, ok := cutPrefix(body, `{"id":`)
	if ok {
		if id, rest, ok = cutInt(rest); ok {
			rest, ok = cutPrefix(rest, `,"record_b64":"`)
		}
	} else {
		rest, ok = cutPrefix(body, `{"record_b64":"`)
	}
	if ok {
		b64, rest, ok = cutB64(rest)
	}
	if ok {
		rest, ok = cutPrefix(rest, `}`)
	}
	return id, b64, ok && onlySpace(rest)
}

// recogniseBatch matches the bodies json.Encoder writes for a
// batchSearchRequest of 1..maxBatchRecords strings that need no
// unescaping, {"records_b64":["S",...]}, followed by JSON whitespace only.
// A body of more strings falls through, so however many tiny strings fit
// under the body limit, the recogniser holds at most maxBatchRecords.
func recogniseBatch(body []byte) (b64s [][]byte, ok bool) {
	rest, ok := cutPrefix(body, `{"records_b64":[`)
	for ok {
		var s []byte
		if rest, ok = cutPrefix(rest, `"`); ok {
			s, rest, ok = cutB64(rest)
		}
		if !ok || len(b64s) == maxBatchRecords {
			return nil, false
		}
		b64s = append(b64s, s)
		if rest, ok = cutPrefix(rest, `,`); !ok {
			rest, ok = cutPrefix(rest, `]}`)
			return b64s, ok && onlySpace(rest)
		}
	}
	return nil, false
}

func cutPrefix(b []byte, prefix string) ([]byte, bool) {
	if len(b) < len(prefix) || string(b[:len(prefix)]) != prefix {
		return b, false
	}
	return b[len(prefix):], true
}

// cutInt cuts a non-zero JSON integer that fits an int: -?[1-9][0-9]*.
func cutInt(b []byte) (int, []byte, bool) {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i == len(b) || b[i] < '1' || b[i] > '9' {
		return 0, b, false
	}
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	n, err := strconv.ParseInt(string(b[:i]), 10, strconv.IntSize)
	return int(n), b[i:], err == nil
}

// b64Alphabet marks the bytes of base64.StdEncoding's alphabet.
var b64Alphabet = func() (t [256]bool) {
	for _, c := range "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/" {
		t[c] = true
	}
	return
}()

// cutB64 cuts a non-empty JSON string body made of base64's alphabet and at
// most two trailing '=', and its closing quote. Such a string has no
// escapes, control bytes or non-ASCII, so encoding/json decodes it to the
// same bytes.
func cutB64(b []byte) (s, rest []byte, ok bool) {
	i := 0
	for i < len(b) && b64Alphabet[b[i]] {
		i++
	}
	j := i
	for j < len(b) && j-i < 2 && b[j] == '=' {
		j++
	}
	if j == 0 || j == len(b) || b[j] != '"' {
		return nil, b, false
	}
	return b[:j], b[j+1:], true
}

// onlySpace reports whether b is JSON whitespace, such as the newline
// json.Encoder ends a value with.
func onlySpace(b []byte) bool {
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return false
		}
	}
	return true
}

// writeSearchJSON answers 200 with a body appendSearchResponse built, plus
// the newline json.Encoder ends a value with.
func writeSearchJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// A write failure here means the client hung up mid-reply; there is no
	// channel left to report on.
	_, _ = w.Write(append(body, '\n'))
}

// appendSearchResponse appends r as encoding/json marshals it. ElapsedUS
// and Speed are finite (Speed is set only when ElapsedUS > 0), the only
// floats encoding/json would refuse.
func appendSearchResponse(b []byte, r *SearchResponse) []byte {
	b = append(b, `{"best_id":`...)
	b = strconv.AppendInt(b, int64(r.BestID), 10)
	b = append(b, `,"score":`...)
	b = strconv.AppendInt(b, int64(r.Score), 10)
	b = append(b, `,"accepted":`...)
	b = strconv.AppendBool(b, r.Accepted)
	b = append(b, `,"compared":`...)
	b = strconv.AppendInt(b, int64(r.Compared), 10)
	b = append(b, `,"elapsed_us":`...)
	b = appendJSONFloat(b, r.ElapsedUS)
	b = append(b, `,"speed_images_per_sec":`...)
	b = appendJSONFloat(b, r.Speed)
	if r.Partial {
		b = append(b, `,"partial":true`...)
	}
	b = append(b, `,"shards_answered":`...)
	b = strconv.AppendInt(b, int64(r.ShardsAnswered), 10)
	b = append(b, `,"shards_total":`...)
	b = strconv.AppendInt(b, int64(r.ShardsTotal), 10)
	if len(r.Ranked) > 0 {
		b = append(b, `,"ranked":[`...)
		for i, c := range r.Ranked {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"ref_id":`...)
			b = strconv.AppendInt(b, int64(c.RefID), 10)
			b = append(b, `,"score":`...)
			b = strconv.AppendInt(b, int64(c.Score), 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendResults appends the /v1/search/batch answer for reps as
// encoding/json marshals map[string][]SearchResponse{"results": ...}.
func appendResults(b []byte, reps []*Report) []byte {
	b = append(b, `{"results":[`...)
	for i, rep := range reps {
		if i > 0 {
			b = append(b, ',')
		}
		resp := searchResponse(rep, 0)
		b = appendSearchResponse(b, &resp)
	}
	return append(b, "]}"...)
}

// appendJSONFloat appends a finite f as encoding/json writes a float64:
// 'f' format, 'e' below 1e-6 or from 1e21 up, with a one-digit negative
// exponent written without its leading zero.
func appendJSONFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		b = strconv.AppendFloat(b, f, 'e', -1, 64)
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
		return b
	}
	return strconv.AppendFloat(b, f, 'f', -1, 64)
}
