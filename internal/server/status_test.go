package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
)

// statusProbes are one valid, uncached request per route that reaches the
// worker pool. The design catalog (dest-mod on ftree(2+m,3)) has no
// closed-form shortcut below m = n·r, so its plan needs tier-2 probes.
var statusProbes = []struct {
	name, path, body string
}{
	{"verify", "/v1/verify", `{"n":2,"m":4,"r":3,"routing":"paper"}`},
	{"sim", "/v1/sim", `{"n":2,"m":4,"r":3,"routing":"dest-mod","pattern":"shift"}`},
	{"design", "/v1/design", `{"catalog":{"families":["ftree"],"routers":["dest-mod"],` +
		`"n":{"min":2,"max":2},"r":{"min":3,"max":3},"m":{"min":1,"max":4},` +
		`"verify":{"max_hosts":8,"max_exhaustive":6,"trials":20}}}`},
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// batchItemStatus posts a one-item batch and returns the item's status;
// the batch itself must answer 200 without Retry-After.
func batchItemStatus(t *testing.T, base string) int {
	t.Helper()
	resp, body := post(t, base+"/v1/verify/batch", `{"items":[{"n":2,"m":4,"r":5,"routing":"paper"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("batch with a per-item error carries Retry-After %q", ra)
	}
	var rep api.BatchReport
	if err := json.Unmarshal(body, &rep); err != nil || len(rep.Items) != 1 {
		t.Fatalf("batch body %s: %v", body, err)
	}
	return rep.Items[0].Status
}

// TestErrorStatusMatrix pins the pool's error → status mapping on every
// route that enqueues work: a full queue is a 429 with Retry-After (a
// per-item 429 without the header inside a batch), a closed server is a
// 503, and a GET on any POST route is a 405.
func TestErrorStatusMatrix(t *testing.T) {
	t.Run("queue full", func(t *testing.T) {
		s := New(Config{Workers: 1, QueueDepth: 1})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		// Park the only worker on one plug, then take the one queue slot
		// with another, so the next enqueue is deterministically refused.
		defer plugQueue(t, s, 1)()
		for len(s.queue) > 0 {
			time.Sleep(time.Millisecond)
		}
		defer plugQueue(t, s, 1)()
		for _, p := range statusProbes {
			resp, body := post(t, ts.URL+p.path, p.body)
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Errorf("%s: status %d, want 429: %s", p.name, resp.StatusCode, body)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("%s: 429 without Retry-After", p.name)
			}
		}
		if got := batchItemStatus(t, ts.URL); got != http.StatusTooManyRequests {
			t.Errorf("batch item: status %d, want 429", got)
		}
	})

	t.Run("closed", func(t *testing.T) {
		s := New(Config{Workers: 1, QueueDepth: 4})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		s.Close()
		for _, p := range statusProbes {
			if resp, body := post(t, ts.URL+p.path, p.body); resp.StatusCode != http.StatusServiceUnavailable {
				t.Errorf("%s: status %d, want 503: %s", p.name, resp.StatusCode, body)
			}
		}
		if got := batchItemStatus(t, ts.URL); got != http.StatusServiceUnavailable {
			t.Errorf("batch item: status %d, want 503", got)
		}
	})

	t.Run("wrong method", func(t *testing.T) {
		s := New(Config{Workers: 1})
		defer s.Close()
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		paths := []string{"/v1/verify/batch", "/v1/verify/sweep", "/v1/design"}
		for _, e := range endpoints {
			paths = append(paths, "/v1/"+e.op)
		}
		for _, path := range paths {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("GET %s: status %d, want 405", path, resp.StatusCode)
			}
		}
	})
}
