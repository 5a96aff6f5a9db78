package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWriteJSONUnencodable: a value JSON cannot encode (here +Inf) answers
// 500 with a JSON body that decodes and names the failure, not the
// handler's status with an empty body; an encodable value keeps its
// status.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, struct {
		V float64 `json:"v"`
	}{math.Inf(1)})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || !strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("body %q (%v), want a JSON error naming the unsupported value", rec.Body.String(), err)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}

	rec = httptest.NewRecorder()
	writeJSON(rec, http.StatusNotFound, struct {
		V float64 `json:"v"`
	}{1.5})
	if rec.Code != http.StatusNotFound || strings.TrimSpace(rec.Body.String()) != "{\n  \"v\": 1.5\n}" {
		t.Fatalf("status %d body %q, want 404 and the value", rec.Code, rec.Body.String())
	}
}
