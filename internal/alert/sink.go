package alert

import (
	"context"
	"log/slog"
)

// Sink delivers notifications somewhere an operator will see them. The
// dispatcher calls Deliver sequentially from one goroutine with a
// per-delivery context deadline; a Deliver error is counted against the
// sink and never retried by the dispatcher (sinks own their retry
// policy, like WebhookSink's bounded backoff). Close is called exactly
// once, after the dispatch queue has drained.
type Sink interface {
	// Name labels the sink in metrics and the books.
	Name() string
	// Deliver sends one notification; ctx bounds the attempt(s).
	Deliver(ctx context.Context, n Notification) error
	// Close releases sink resources after the final delivery.
	Close() error
}

// SlogSink logs every notification through a slog.Logger — the sink of
// last resort: zero configuration, never fails.
type SlogSink struct {
	log *slog.Logger
}

// NewSlogSink builds the logging sink (nil logger uses slog.Default).
func NewSlogSink(log *slog.Logger) *SlogSink {
	if log == nil {
		log = slog.Default()
	}
	return &SlogSink{log: log}
}

func (s *SlogSink) Name() string { return "log" }

func (s *SlogSink) Deliver(_ context.Context, n Notification) error {
	attrs := []any{
		"stream", n.Stream, "model", n.Model,
		"gate_dist", n.GateDist, "lof", n.LOF,
		"window", n.WindowIndex, "trips", n.Trips,
	}
	switch n.Kind {
	case KindFiring:
		s.log.Warn("alert firing", attrs...)
	case KindResolved:
		s.log.Info("alert resolved", append(attrs, "duration_s", n.DurationS)...)
	default:
		s.log.Warn("alert (unknown kind)", attrs...)
	}
	return nil
}

func (s *SlogSink) Close() error { return nil }
