package alert

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// The webhook's delivery policy.
const (
	// webhookRetries is how many times a retryable failure (transport
	// error or 5xx) is retried after the first attempt.
	webhookRetries = 2
	// webhookBackoff is the first retry delay; it doubles per retry.
	// Waits are cut short by the delivery context.
	webhookBackoff = 250 * time.Millisecond
	// webhookMaxBody bounds how much of a response body is read into an
	// error: oversized (or hostile) responses are cut, never buffered
	// whole.
	webhookMaxBody = 4 << 10
)

// WebhookSink POSTs each notification as JSON to one URL, with bounded
// retries: transport errors and 5xx responses back off and retry (the
// remote may be restarting), 4xx responses fail immediately (retrying a
// rejection is spam), and the delivery context caps the whole attempt
// train — a hung webhook costs one delivery slot, never a scoring stall
// (the dispatch queue is the buffer in between).
type WebhookSink struct {
	url string
	// sleep is the inter-retry wait, swapped out by tests to assert the
	// backoff schedule without wall-clock waits.
	sleep func(ctx context.Context, d time.Duration) error
}

// NewWebhookSink builds a webhook sink for url.
func NewWebhookSink(url string) *WebhookSink {
	return &WebhookSink{url: url, sleep: sleepCtx}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func (s *WebhookSink) Name() string { return "webhook" }

func (s *WebhookSink) Deliver(ctx context.Context, n Notification) error {
	payload, err := json.Marshal(n)
	if err != nil {
		return fmt.Errorf("alert: webhook encode: %w", err)
	}
	backoff := webhookBackoff
	var lastErr error
	for attempt := 0; attempt <= webhookRetries; attempt++ {
		if attempt > 0 {
			if err := s.sleep(ctx, backoff); err != nil {
				return fmt.Errorf("alert: webhook %s: %w (after %v)", s.url, err, lastErr)
			}
			backoff *= 2
		}
		retryable, err := s.post(ctx, payload)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable {
			return err
		}
		if ctx.Err() != nil {
			return fmt.Errorf("alert: webhook %s: %w (after %v)", s.url, ctx.Err(), lastErr)
		}
	}
	return lastErr
}

// post runs one attempt; retryable reports whether another attempt could
// help (transport failure or 5xx).
func (s *WebhookSink) post(ctx context.Context, payload []byte) (retryable bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.url, bytes.NewReader(payload))
	if err != nil {
		return false, fmt.Errorf("alert: webhook %s: %w", s.url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return true, fmt.Errorf("alert: webhook %s: %w", s.url, err)
	}
	// Read at most webhookMaxBody bytes (the error detail), then drain a
	// little more so keep-alive can reuse the connection — but never the
	// whole body: an oversized response is the server's problem, not ours.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, webhookMaxBody))
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return false, nil
	case resp.StatusCode >= 500:
		return true, fmt.Errorf("alert: webhook %s: %s: %q", s.url, resp.Status, body)
	default:
		return false, fmt.Errorf("alert: webhook %s: %s: %q", s.url, resp.Status, body)
	}
}

func (s *WebhookSink) Close() error { return nil }
