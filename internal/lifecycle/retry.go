package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bglpred/internal/ledger"
)

// Distinct give-up errors for the two persistence paths, so operators
// and tests can tell a checkpoint that never landed from a model
// artifact that never landed. Both wrap the last underlying I/O error
// (errors.Is sees ENOSPC through them).
var (
	// ErrCheckpointGiveUp marks a shard-state checkpoint abandoned
	// after exhausting its retry budget, or at once on a closed or
	// failed ledger.
	ErrCheckpointGiveUp = errors.New("lifecycle: checkpoint retries exhausted")
	// ErrModelPersistGiveUp marks a retrained-model artifact abandoned
	// after exhausting its retry budget.
	ErrModelPersistGiveUp = errors.New("lifecycle: model persist retries exhausted")
)

// RetryPolicy bounds the exponential backoff persistence writes use
// against transient I/O failures (a briefly full disk, a flaky NFS
// mount). The zero value selects the defaults: 5 attempts starting at
// 50 ms, doubling to a 2 s cap, with ±20 % deterministic jitter.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first try included).
	MaxAttempts int
	// BaseDelay is the wait after the first failure; each subsequent
	// wait doubles, capped at MaxDelay.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter spreads each wait by ±Jitter fraction (0.2 = ±20 %),
	// decorrelating retry storms across shards and daemons. The jitter
	// stream is deterministic per policy value (seeded by Seed), so
	// chaos tests replay identically.
	Jitter float64
	// Seed derives the deterministic jitter stream.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.Jitter < 0 || p.Jitter >= 1 {
		p.Jitter = 0.2
	}
	return p
}

// retryWithBackoff runs op up to p.MaxAttempts times, sleeping an
// exponentially growing, jittered delay between failures. A closed or
// failed ledger is permanent, so op returning either ends the loop at
// once. It also stops early when ctx is cancelled (returning ctx.Err() wrapped over the
// last op error, so a shutdown mid-retry is not misread as a disk
// problem). retries reports how many re-tries ran (attempts - 1,
// successful or not); err is nil on success and the last op error
// otherwise.
func retryWithBackoff(ctx context.Context, p RetryPolicy, op func() error) (retries int, err error) {
	p = p.withDefaults()
	rng := p.Seed ^ 0x9e3779b97f4a7c15
	delay := p.BaseDelay
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || attempt >= p.MaxAttempts || errors.Is(err, ledger.ErrClosed) || errors.Is(err, ledger.ErrFailed) {
			return attempt - 1, err
		}
		if ctx != nil && ctx.Err() != nil {
			return attempt - 1, fmt.Errorf("%w (after %w)", ctx.Err(), err)
		}
		d := jitter(delay, p.Jitter, &rng)
		select {
		case <-time.After(d):
		case <-ctxDone(ctx):
			return attempt - 1, fmt.Errorf("%w (after %w)", ctx.Err(), err)
		}
		if delay *= 2; delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

// ctxDone tolerates a nil context (retry without cancellation).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}

// jitter spreads d by ±frac using a splitmix64 step over *state.
func jitter(d time.Duration, frac float64, state *uint64) time.Duration {
	if frac <= 0 {
		return d
	}
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	// u in [0,1); scale to [1-frac, 1+frac).
	u := float64(z>>11) / float64(1<<53)
	return time.Duration(float64(d) * (1 - frac + 2*frac*u))
}
