package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"bglpred/internal/ledger"
	"bglpred/internal/model"
	"bglpred/internal/serve"
)

// CheckpointerConfig parameterizes the periodic checkpointer.
type CheckpointerConfig struct {
	// Ledger is where checkpoints live (required): each snapshot is
	// appended as a KindCheckpoint entry (full envelope bytes in the
	// payload) whose fsync is shared with concurrent ingest and alert
	// appends, and Restore reads the newest such entry.
	Ledger *ledger.Ledger
	// Dir is the model directory Restore searches for the artifact a
	// checkpoint was taken against when the server booted another.
	Dir string
	// Interval between snapshots; default 30 s.
	Interval time.Duration
	// Retry bounds the backoff against transient append failures; the
	// zero value selects the defaults (5 attempts, 50 ms..2 s).
	Retry RetryPolicy
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Checkpointer periodically snapshots a server's shard state into the
// audit ledger. An append is acknowledged only once its group commit
// is durable, so a kill at any moment leaves the previous complete
// checkpoint as the newest one. Transient append failures (ENOSPC, a
// failed fsync) are retried with jittered exponential backoff; only an
// exhausted budget or a closed or failed ledger surfaces, as an error
// wrapping ErrCheckpointGiveUp.
type Checkpointer struct {
	srv       *serve.Server
	cfg       CheckpointerConfig
	saves     atomic.Int64
	retries   atomic.Int64
	giveups   atomic.Int64
	lastSaved atomic.Int64 // unixnano of the newest durable checkpoint
}

// errNoLedger refuses a checkpoint or restore at once: without a
// ledger there is nowhere to write or read one, and no retry helps.
var errNoLedger = errors.New("lifecycle: checkpointer has no ledger")

// NewCheckpointer builds a checkpointer over a server.
func NewCheckpointer(srv *serve.Server, cfg CheckpointerConfig) *Checkpointer {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	return &Checkpointer{srv: srv, cfg: cfg}
}

// CheckpointNow takes one snapshot and appends it to the ledger
// immediately, retrying transient append failures.
func (c *Checkpointer) CheckpointNow() (model.Info, error) {
	return c.checkpoint(context.Background())
}

// checkpoint is CheckpointNow under a context: a cancelled ctx stops
// the retry loop early (shutdown must not serve a full backoff
// schedule to a dead disk).
func (c *Checkpointer) checkpoint(ctx context.Context) (model.Info, error) {
	if c.cfg.Ledger == nil {
		return model.Info{}, errNoLedger
	}
	m := c.srv.Model()
	framed, info, err := encodeCheckpoint(&Checkpoint{
		SavedAt:      time.Now(),
		ModelSHA256:  m.SHA256,
		ModelVersion: m.Version,
		Shards:       c.srv.ExportShards(),
	})
	if err != nil {
		return model.Info{}, err
	}
	var r ledger.Receipt
	retries, err := retryWithBackoff(ctx, c.cfg.Retry, func() (appendErr error) {
		r, appendErr = c.cfg.Ledger.Append(ledger.KindCheckpoint, framed)
		return appendErr
	})
	c.retries.Add(int64(retries))
	if err != nil {
		c.giveups.Add(1)
		return model.Info{}, fmt.Errorf("%w: %w", ErrCheckpointGiveUp, err)
	}
	c.saves.Add(1)
	c.lastSaved.Store(time.Now().UnixNano())
	if retries > 0 {
		c.logf("checkpoint landed after %d retries", retries)
	}
	info.Path = fmt.Sprintf("ledger:seq=%d", r.Seq)
	return info, nil
}

// LastSaved reports when the newest checkpoint became durable (zero
// time when none has landed this process). /healthz surfaces its age
// so a stalled Checkpointer is visible before a crash needs it.
func (c *Checkpointer) LastSaved() time.Time {
	ns := c.lastSaved.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Saves reports completed checkpoints; Retries the write re-tries
// spent landing them; GiveUps the checkpoints abandoned with their
// retry budget exhausted.
func (c *Checkpointer) Saves() int64   { return c.saves.Load() }
func (c *Checkpointer) Retries() int64 { return c.retries.Load() }
func (c *Checkpointer) GiveUps() int64 { return c.giveups.Load() }

// Run checkpoints on the configured interval until ctx is cancelled,
// then takes one final snapshot so a graceful shutdown preserves the
// very latest state. Errors are logged, not fatal: a transiently full
// disk must not take the serving path down.
func (c *Checkpointer) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := c.checkpoint(ctx); err != nil {
				c.logf("checkpoint: %v", err)
			}
		case <-ctx.Done():
			// The final snapshot runs without the cancelled ctx (it would
			// abort the retries a shutdown most wants to see through).
			if _, err := c.checkpoint(context.Background()); err != nil {
				c.logf("final checkpoint: %v", err)
			}
			return
		}
	}
}

func (c *Checkpointer) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}
