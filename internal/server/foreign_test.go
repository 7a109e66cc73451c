package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
)

// TestForeignFieldMatrix pins every endpoint's answer to each field that
// belongs to another endpoint — shard_prefix and sym_shard
// (/v1/verify/shard), sym_reduce (the verify endpoints) and a failures
// block (/v1/failures) — plus all four at once, which shows the order the
// checks run in. Each cell asserts the status and the exact message.
func TestForeignFieldMatrix(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const (
		prefixMsg   = "shard_prefix is only valid on /v1/verify/shard"
		symShardMsg = "sym_shard is only valid on /v1/verify/shard"
		symRedMsg   = "sym_reduce is only valid on verify endpoints"
		failMsg     = "failures block is only valid on /v1/failures"
	)
	fb := func() *api.FailuresRequest {
		return &api.FailuresRequest{Scenario: "tops", MaxFailures: 1, Samples: 1, Trials: 2}
	}
	fields := []struct {
		name string
		set  func(q *api.Request)
	}{
		{"shard_prefix", func(q *api.Request) { q.ShardPrefix = []int{0} }},
		{"sym_shard", func(q *api.Request) { q.SymShard = []int{0, 1} }},
		{"sym_reduce", func(q *api.Request) { q.SymReduce = true }},
		{"failures", func(q *api.Request) { q.Failures = fb() }},
		{"all", func(q *api.Request) {
			q.ShardPrefix, q.SymShard, q.SymReduce, q.Failures = []int{0}, []int{0, 1}, true, fb()
		}},
	}
	type cell struct {
		status int
		msg    string // exact error message; "" for an accepted request
	}
	ok, accepted := cell{http.StatusOK, ""}, cell{http.StatusAccepted, ""}
	bad := func(msg string) cell { return cell{http.StatusBadRequest, msg} }
	endpoints := []struct {
		name     string
		path     string
		failures bool // the base request carries a failures block
		want     map[string]cell
	}{
		{"verify", "/v1/verify", false, map[string]cell{
			"shard_prefix": bad(prefixMsg), "sym_shard": bad(symShardMsg),
			"sym_reduce": ok, "failures": bad(failMsg), "all": bad(prefixMsg)}},
		{"verify/shard", "/v1/verify/shard", false, map[string]cell{
			"shard_prefix": ok, "sym_shard": bad("sym_shard requires sym_reduce"),
			"sym_reduce": bad("sym_reduce on /v1/verify/shard requires sym_shard"),
			"failures":   bad(failMsg), "all": bad(failMsg)}},
		{"worstcase", "/v1/worstcase", false, map[string]cell{
			"shard_prefix": bad(prefixMsg), "sym_shard": bad(symShardMsg),
			"sym_reduce": bad(symRedMsg), "failures": bad(failMsg), "all": bad(prefixMsg)}},
		{"sim", "/v1/sim", false, map[string]cell{
			"shard_prefix": bad(prefixMsg), "sym_shard": bad(symShardMsg),
			"sym_reduce": bad(symRedMsg), "failures": bad(failMsg), "all": bad(prefixMsg)}},
		{"failures", "/v1/failures", true, map[string]cell{
			"shard_prefix": bad(prefixMsg), "sym_shard": bad(symShardMsg),
			"sym_reduce": bad(symRedMsg), "failures": ok, "all": bad(prefixMsg)}},
		{"batch item", "/v1/verify/batch", false, map[string]cell{
			"shard_prefix": bad(prefixMsg), "sym_shard": bad(symShardMsg),
			"sym_reduce": ok, "failures": bad(failMsg), "all": bad(prefixMsg)}},
		{"sweep", "/v1/verify/sweep", false, map[string]cell{
			"shard_prefix": bad(prefixMsg), "sym_shard": bad(symShardMsg),
			"sym_reduce": accepted, "failures": bad(failMsg), "all": bad(prefixMsg)}},
	}

	for _, ep := range endpoints {
		for _, f := range fields {
			t.Run(ep.name+"/"+f.name, func(t *testing.T) {
				want, found := ep.want[f.name]
				if !found {
					t.Fatalf("no expectation for %s × %s", ep.name, f.name)
				}
				q := api.Request{N: 2, M: 4, R: 3, Routing: "paper", Trials: 3, NoCache: true}
				if ep.failures {
					q.Failures = fb()
				}
				f.set(&q)

				var got cell
				if ep.path == "/v1/verify/batch" {
					resp, body := postBatch(t, ts.URL, &api.BatchRequest{Items: []api.Request{q}})
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("batch status %d: %s", resp.StatusCode, body)
					}
					var rep api.BatchReport
					if err := json.Unmarshal(body, &rep); err != nil {
						t.Fatal(err)
					}
					got = cell{rep.Items[0].Status, rep.Items[0].Error}
				} else {
					resp, body := postJSON(t, ts.URL+ep.path, &q)
					got.status = resp.StatusCode
					if resp.StatusCode >= http.StatusBadRequest {
						var er api.ErrorReport
						if err := json.Unmarshal(body, &er); err != nil {
							t.Fatalf("error body %s: %v", body, err)
						}
						got.msg = er.Error
					}
				}
				if got != want {
					t.Fatalf("got %d %q, want %d %q", got.status, got.msg, want.status, want.msg)
				}
			})
		}
	}
}
