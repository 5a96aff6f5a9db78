package alert

import "sync"

// tokenBucket is the global notification rate limiter. Three modes,
// picked by the construction parameters:
//
//   - rate > 0: classic token bucket — refills rate tokens/s up to burst
//     (burst <= 0 defaults to rate, a one-second window).
//   - rate == 0, burst > 0: fixed budget — burst tokens, never refilled.
//     The deterministic mode the fake-clock tests use.
//   - rate == 0, burst <= 0: unlimited (take always succeeds).
//
// Time is the pipeline clock in nanoseconds, so fake clocks drive refill
// exactly.
type tokenBucket struct {
	mu        sync.Mutex
	rate      float64 // tokens per second
	burst     float64
	tokens    float64 // guarded by mu
	lastNs    int64   // guarded by mu
	unlimited bool
}

func newTokenBucket(rate, burst float64, nowNs int64) *tokenBucket {
	if rate <= 0 && burst <= 0 {
		return &tokenBucket{unlimited: true}
	}
	if rate > 0 && burst <= 0 {
		burst = rate
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, lastNs: nowNs}
}

// take consumes one token if available.
func (b *tokenBucket) take(nowNs int64) bool {
	if b.unlimited {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Streams read the clock before they queue for mu, so readings arrive
	// out of order. The refill origin only moves forward: moved back to a
	// stale reading, the next take would refill that interval twice.
	if nowNs > b.lastNs {
		if b.rate > 0 {
			b.tokens = min(b.burst, b.tokens+float64(nowNs-b.lastNs)/1e9*b.rate)
		}
		b.lastNs = nowNs
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}
