package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/analysis"
	"repro/internal/api"
	"repro/internal/permutation"
)

// remoteRequest is the /v1/verify/sweep request that decides what a local
// run with the same flags decides: the same network, routing (seed
// included, which random-fixed draws its paths from) and exhaustive
// opt-in. -first-blocked and -pattern have no remote counterpart, so
// combining them with -remote is a usage error.
func remoteRequest(n, m, r int, scheme string, sprayWidth int, seed int64, maxExh int, firstBlocked, sym bool, pattern string) (*api.Request, error) {
	if firstBlocked || pattern != "" {
		return nil, fmt.Errorf("-remote runs a full exhaustive sweep: it does not take -first-blocked or -pattern")
	}
	return &api.Request{N: n, M: m, R: r, Routing: scheme, SprayWidth: sprayWidth, Seed: api.SeedPtr(seed),
		MaxExhaustive: maxExh, SymReduce: sym}, nil
}

// runRemote is nbverify's client mode: instead of deciding locally, it
// submits q as an exhaustive sweep to a (possibly coordinating) nbserve
// node, follows the job's SSE event stream printing progress as shards
// complete, and renders the final VerifyReport through the same report
// the local engines print.
func runRemote(ctx context.Context, out io.Writer, remote string, q *api.Request) error {
	if !strings.Contains(remote, "://") {
		remote = "http://" + remote
	}
	var acc api.SweepAccepted
	if err := api.PostJSON(ctx, remote+"/v1/verify/sweep", q, http.StatusAccepted, &acc); err != nil {
		return err
	}
	if acc.Workers > 0 {
		fmt.Fprintf(out, "remote sweep %s: %d shards across %d workers (%d resumed)\n",
			acc.JobID, acc.Shards, acc.Workers, acc.Resumed)
	} else {
		fmt.Fprintf(out, "remote sweep %s: local engine on %s\n", acc.JobID, remote)
	}

	final, err := followEvents(ctx, out, remote+acc.EventsURL)
	if err != nil {
		return err
	}
	if final.State == "failed" {
		return fmt.Errorf("remote sweep failed: %s", final.Error)
	}
	var rep api.VerifyReport
	if err := json.Unmarshal(final.Result, &rep); err != nil {
		return fmt.Errorf("decode sweep result: %w", err)
	}
	res := &analysis.SweepResult{Tested: rep.Tested, Blocked: rep.Blocked, MaxLinkLoad: rep.MaxLinkLoad}
	if rep.Blocked > 0 {
		if res.FirstBlocked, err = permutation.Parse(rep.Hosts, rep.Witness); err != nil {
			return fmt.Errorf("decode sweep witness: %w", err)
		}
	}
	report(out, res, "exhaustive")
	return nil
}

// followEvents consumes the job's SSE stream, printing one progress line
// per event, until the terminal `done` event arrives; it returns that
// event's status payload.
func followEvents(ctx context.Context, out io.Writer, url string) (*api.SweepStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("event stream: status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var st api.SweepStatus
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				return nil, fmt.Errorf("decode %s event: %w", event, err)
			}
			if event == "done" {
				return &st, nil
			}
			fmt.Fprintf(out, "progress: %d/%d shards, %d patterns swept, %d blocked\n",
				st.ShardsDone, st.ShardsTotal, st.Tested, st.Blocked)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("event stream ended without a done event")
}
