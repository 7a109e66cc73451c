package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// postWithin runs PostJSON against handler and fails the test if the call
// does not return within the deadline: no response may hang a client.
func postWithin(t *testing.T, handler http.HandlerFunc, want int, out any) error {
	t.Helper()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- PostJSON(ctx, ts.URL+"/v1/x", &Request{N: 2}, want, out) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("PostJSON did not return")
		return nil
	}
}

func TestPostJSONDecodesExpectedStatus(t *testing.T) {
	var got VerifyReport
	err := postWithin(t, func(w http.ResponseWriter, r *http.Request) {
		var q Request
		if r.Method != http.MethodPost || r.Header.Get("Content-Type") != "application/json" ||
			json.NewDecoder(r.Body).Decode(&q) != nil || q.N != 2 {
			w.WriteHeader(http.StatusTeapot)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(&VerifyReport{Verdict: "nonblocking", Hosts: 4})
	}, http.StatusAccepted, &got)
	if err != nil {
		t.Fatal(err)
	}
	if got.Verdict != "nonblocking" || got.Hosts != 4 {
		t.Fatalf("decoded %+v", got)
	}
}

func TestPostJSONErrorReport(t *testing.T) {
	err := postWithin(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(&ErrorReport{Error: "n must be >= 1 (have -1)"})
	}, http.StatusOK, &VerifyReport{})
	if err == nil || !strings.Contains(err.Error(), "(400): n must be >= 1 (have -1)") {
		t.Fatalf("err = %v, want the 400 and the server's message", err)
	}
}

func TestPostJSONUnexpectedStatus(t *testing.T) {
	// A success status other than the expected one is an error too: a 200
	// where a 202 acceptance was due carries a different schema.
	for _, status := range []int{http.StatusOK, http.StatusBadGateway} {
		err := postWithin(t, func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			w.Write([]byte("<html>not json</html>"))
		}, http.StatusAccepted, &SweepAccepted{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("status %d", status)) {
			t.Fatalf("status %d: err = %v", status, err)
		}
	}
}

func TestPostJSONOversizedBody(t *testing.T) {
	// A well-formed JSON document just past the limit: reading it whole
	// would decode fine, so only the bound can reject it.
	pad := bytes.Repeat([]byte(" "), maxResponseBytes)
	err := postWithin(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write(pad)
		w.Write([]byte(`{"verdict":"nonblocking"}`))
	}, http.StatusOK, &VerifyReport{})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want an oversized-response error", err)
	}
}

func TestPostJSONBadBody(t *testing.T) {
	err := postWithin(t, func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"verdict":`))
	}, http.StatusOK, &VerifyReport{})
	if err == nil || !strings.Contains(err.Error(), "decode") {
		t.Fatalf("err = %v, want a decode error", err)
	}
}
