package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/datasets"
)

// TestRecoveryMiddleware asserts a panicking handler yields a JSON 500
// (with the stack logged) rather than a dropped connection.
func TestRecoveryMiddleware(t *testing.T) {
	var logged bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&logged)
	t.Cleanup(func() { log.SetOutput(prev) })

	h := withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("boom in handler")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/panics")
	if err != nil {
		t.Fatalf("panic tore down the connection: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body is not JSON: %v", err)
	}
	if body["error"] != "internal server error" {
		t.Fatalf("500 body %v", body)
	}
	got := logged.String()
	if !strings.Contains(got, "boom in handler") || !strings.Contains(got, "middleware_test.go") {
		t.Fatalf("panic log missing message or stack:\n%s", got)
	}
}

// TestRecoveryRepanicsAbortHandler: http.ErrAbortHandler is the
// sanctioned mid-response abort and must pass through untouched.
func TestRecoveryRepanicsAbortHandler(t *testing.T) {
	h := withRecovery(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Fatalf("recovered %v, want http.ErrAbortHandler re-raised", p)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
}

// TestBodyLimit asserts POST bodies over the configured cap get a 413
// and do not reach the decoder, on both ingest and query endpoints.
func TestBodyLimit(t *testing.T) {
	db, _ := datasets.FECDB(datasets.FECConfig{Rows: 1_000, Seed: 2})
	srv := New(db)
	srv.maxBodyBytes = 256
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	big := `{"table":"fec","rows":[` + strings.Repeat(`{"amount":1},`, 200) + `{"amount":1}]}`
	if len(big) <= 256 {
		t.Fatal("test body not oversized")
	}
	for _, path := range []string{"/api/append", "/api/query"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s oversized: status %d body %s, want 413", path, resp.StatusCode, b)
		}
		var msg map[string]string
		if err := json.Unmarshal(b, &msg); err != nil || msg["error"] == "" {
			t.Fatalf("413 body not a JSON error: %s", b)
		}
	}

	// A small body on the same server still works.
	resp, err := http.Post(ts.URL+"/api/query", "application/json",
		strings.NewReader(`{"table":"fec"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Fatal("small body rejected by the cap")
	}
}
