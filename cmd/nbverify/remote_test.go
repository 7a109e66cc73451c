package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/server"
)

// TestRemoteSendsLocalRequest runs runRemote against a live nbserve that
// records the sweep request: the seed must travel with it, or the server
// builds random-fixed with its default seed and certifies another router
// than the local run does.
func TestRemoteSendsLocalRequest(t *testing.T) {
	s := server.New(server.Config{Workers: 1, QueueDepth: 4})
	t.Cleanup(s.Close)
	handler := s.Handler()
	sent := make(chan []byte, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/verify/sweep" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			sent <- body
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		handler.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	q, err := remoteRequest(2, 2, 3, "random-fixed", 0, 7, 6, false, false, "")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := runRemote(context.Background(), &out, ts.URL, q); err != nil {
		t.Fatalf("runRemote: %v\n%s", err, out.String())
	}
	body := <-sent
	var got api.Request
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("recorded request %q: %v", body, err)
	}
	if got.Seed == nil || *got.Seed != 7 {
		t.Fatalf("request %s does not carry seed 7", body)
	}
	if got.Routing != "random-fixed" || got.N != 2 || got.M != 2 || got.R != 3 || got.MaxExhaustive != 6 {
		t.Fatalf("request %s does not describe the local run", body)
	}

	// The remote verdict is the parallel engine's answer for that router,
	// which blocks here with a witness that depends on the seed.
	want, err := server.RunVerifyRequest(context.Background(), &api.Request{
		N: 2, M: 2, R: 3, Routing: "random-fixed", Seed: api.SeedPtr(7), MaxExhaustive: 6, Mode: "exhaustive-parallel"})
	if err != nil {
		t.Fatal(err)
	}
	if v := parseVerdict(t, out.String()); !v.matches(want) {
		t.Fatalf("remote output %q does not match %+v", out.String(), want)
	}
}

// TestRemoteRejectsLocalOnlyFlags: -first-blocked and -pattern have no
// remote counterpart, so -remote refuses them instead of dropping them.
func TestRemoteRejectsLocalOnlyFlags(t *testing.T) {
	if _, err := remoteRequest(2, 4, 2, "dest-mod", 0, 1, 8, true, false, ""); err == nil {
		t.Fatal("-remote accepted -first-blocked")
	}
	if _, err := remoteRequest(2, 4, 2, "dest-mod", 0, 1, 8, false, false, "0->1"); err == nil {
		t.Fatal("-remote accepted -pattern")
	}
}

// verdict is what nbverify prints about a decision.
type verdict struct {
	lemma1, blocking       bool
	tested, blocked, maxLL int
	witness                string
}

var (
	passRE    = regexp.MustCompile(`(?m)^verdict: no blocking found over (\d+) .* patterns \(max link load (\d+)\)$`)
	blockRE   = regexp.MustCompile(`(?m)^verdict: BLOCKING — (\d+) of (\d+) .* patterns contended$`)
	witnessRE = regexp.MustCompile(`(?m)^(?:first )?blocked permutation: (.*)$`)
)

func parseVerdict(t *testing.T, out string) verdict {
	t.Helper()
	atoi := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	var v verdict
	switch {
	case strings.Contains(out, "verdict: NONBLOCKING (exact"):
		v.lemma1 = true
	case strings.Contains(out, "verdict: BLOCKING (exact"):
		v.lemma1, v.blocking = true, true
	case passRE.MatchString(out):
		m := passRE.FindStringSubmatch(out)
		v.tested, v.maxLL = atoi(m[1]), atoi(m[2])
	case blockRE.MatchString(out):
		m := blockRE.FindStringSubmatch(out)
		v.blocking, v.blocked, v.tested = true, atoi(m[1]), atoi(m[2])
	default:
		t.Fatalf("no verdict in %q", out)
	}
	if m := witnessRE.FindStringSubmatch(out); m != nil {
		v.witness = m[1]
	}
	return v
}

// matches reports whether rep says everything v printed: the verdict and
// witness, plus the blocked and tested counts of a blocking sweep or the
// tested count and max link load of a passing one.
func (v verdict) matches(rep *api.VerifyReport) bool {
	if v.lemma1 != (rep.Method == "lemma1-exact") || v.blocking != (rep.Verdict == "blocking") || v.witness != rep.Witness {
		return false
	}
	switch {
	case v.lemma1:
		return true
	case v.blocking:
		return v.blocked == rep.Blocked && v.tested == rep.Tested
	default:
		return v.tested == rep.Tested && v.maxLL == rep.MaxLinkLoad
	}
}

// TestVerifyMatchesServer: for the same request, nbverify and /v1/verify
// reach the same decision — counts, max link load and witness — in every
// sweep flavor. Single-path routers are decided by Lemma 1 on both sides.
func TestVerifyMatchesServer(t *testing.T) {
	for _, rt := range []struct {
		scheme  string
		n, m, r int
	}{
		{"paper-folded", 2, 3, 3},
		{"dest-mod", 2, 4, 3},
		{"greedy-local", 2, 4, 3},
		{"adaptive", 2, 12, 3},
		{"spray", 2, 3, 3},
	} {
		hosts := rt.n * rt.r
		for _, md := range []struct {
			name              string
			maxExh            int
			firstBlocked, sym bool
			serverMode        string
			trials            int
		}{
			{"exhaustive", hosts, false, false, "exhaustive", 0},
			{"first-blocked", hosts, true, false, "exhaustive", 0},
			{"sym", hosts, false, true, "exhaustive", 0},
			{"random", hosts - 1, false, false, "random", 40}, // past -max-exhaustive
		} {
			name := rt.scheme + "/" + md.name
			var out bytes.Buffer
			err := runCtx(context.Background(), &out, rt.n, rt.m, rt.r, rt.scheme, 0, md.trials, 5,
				md.maxExh, md.firstBlocked, md.sym, false, "")
			if err != nil {
				t.Fatalf("%s: nbverify: %v\n%s", name, err, out.String())
			}
			q := &api.Request{N: rt.n, M: rt.m, R: rt.r, Routing: rt.scheme, Mode: md.serverMode,
				FirstBlocked: md.firstBlocked, SymReduce: md.sym, Trials: md.trials, Seed: api.SeedPtr(5),
				MaxExhaustive: hosts}
			v := parseVerdict(t, out.String())
			if v.lemma1 {
				q.Mode = "auto"
			}
			rep, err := server.RunVerifyRequest(context.Background(), q)
			if err != nil {
				t.Fatalf("%s: server: %v", name, err)
			}
			if !v.matches(rep) {
				t.Fatalf("%s: nbverify printed %+v\n%s\nserver reported %+v", name, v, out.String(), rep)
			}
		}
	}
}
