package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// maxResponseBytes bounds the response body PostJSON reads. The largest
// reports the service sends (fault campaigns, design frontiers) fit well
// under it; a longer body is an error, never a truncated decode.
const maxResponseBytes = 16 << 20

// PostJSON is the CLIs' client for the nbserve JSON endpoints: it POSTs in
// as JSON to url and, when the response carries status want, decodes the
// body into out. Any other status is an error that quotes the server's
// ErrorReport message when the body holds one.
func PostJSON(ctx context.Context, url string, in any, want int, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return fmt.Errorf("read %s response: %w", url, err)
	}
	if len(raw) > maxResponseBytes {
		return fmt.Errorf("%s: response exceeds %d bytes", url, maxResponseBytes)
	}
	if resp.StatusCode != want {
		var er ErrorReport
		if json.Unmarshal(raw, &er) == nil && er.Error != "" {
			return fmt.Errorf("%s rejected the request (%d): %s", url, resp.StatusCode, er.Error)
		}
		return fmt.Errorf("%s rejected the request: status %d", url, resp.StatusCode)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("decode %s response: %w", url, err)
	}
	return nil
}
