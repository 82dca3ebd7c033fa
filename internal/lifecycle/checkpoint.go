package lifecycle

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"bglpred/internal/ledger"
	"bglpred/internal/model"
	"bglpred/internal/serve"
)

// CheckpointerConfig parameterizes the periodic checkpointer.
type CheckpointerConfig struct {
	// Dir is the checkpoint directory (required). The shard-state file
	// lands at StatePath(Dir).
	Dir string
	// Interval between snapshots; default 30 s.
	Interval time.Duration
	// FS is the filesystem checkpoints are written through (nil =
	// ledger.OS); fault-injection tests interpose faultinject.Fs here.
	FS ledger.FS
	// Retry bounds the backoff against transient write failures; the
	// zero value selects the defaults (5 attempts, 50 ms..2 s).
	Retry RetryPolicy
	// Ledger, when set, moves checkpoint durability onto the audit
	// ledger's group-commit path: each snapshot is appended as a
	// KindCheckpoint entry (full envelope bytes in the payload) whose
	// fsync is shared with concurrent ingest/alert appends, instead of
	// the per-write temp+fsync+rename dance on StateFile. Restore reads
	// the newest such entry; StateFile is neither written nor read.
	Ledger *ledger.Ledger
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
}

// Checkpointer periodically snapshots a server's shard state to disk.
// Every write is crash-safe: a kill at any moment leaves the previous
// complete checkpoint in place. Transient write failures (ENOSPC, a
// failed fsync or rename) are retried with jittered exponential
// backoff; only an exhausted budget surfaces, as an error wrapping
// ErrCheckpointGiveUp.
type Checkpointer struct {
	srv       *serve.Server
	cfg       CheckpointerConfig
	saves     atomic.Int64
	retries   atomic.Int64
	giveups   atomic.Int64
	lastSaved atomic.Int64 // unixnano of the newest durable checkpoint
}

// NewCheckpointer builds a checkpointer over a server.
func NewCheckpointer(srv *serve.Server, cfg CheckpointerConfig) *Checkpointer {
	if cfg.Interval <= 0 {
		cfg.Interval = 30 * time.Second
	}
	if cfg.FS == nil {
		cfg.FS = ledger.OS
	}
	return &Checkpointer{srv: srv, cfg: cfg}
}

// CheckpointNow takes and persists one snapshot immediately, retrying
// transient write failures.
func (c *Checkpointer) CheckpointNow() (model.Info, error) {
	return c.checkpoint(context.Background())
}

// checkpoint is CheckpointNow under a context: a cancelled ctx stops
// the retry loop early (shutdown must not serve a full backoff
// schedule to a dead disk).
func (c *Checkpointer) checkpoint(ctx context.Context) (model.Info, error) {
	m := c.srv.Model()
	cp := &Checkpoint{
		SavedAt:      time.Now(),
		ModelSHA256:  m.SHA256,
		ModelVersion: m.Version,
		Shards:       c.srv.ExportShards(),
	}
	var info model.Info
	save := func() error {
		var saveErr error
		info, saveErr = SaveCheckpoint(c.cfg.FS, StatePath(c.cfg.Dir), cp)
		return saveErr
	}
	if c.cfg.Ledger != nil {
		// Group-commit path: the checkpoint envelope rides inside the
		// ledger, so its durability cost is one share of a batched
		// fsync — and its provenance is chained like everything else.
		framed, envInfo, err := model.MarshalEnvelope(CheckpointMagic, CheckpointVersion, cp)
		if err != nil {
			return model.Info{}, err
		}
		save = func() error {
			r, appendErr := c.cfg.Ledger.Append(ledger.KindCheckpoint, framed)
			if appendErr != nil {
				return appendErr
			}
			info = envInfo
			info.Path = fmt.Sprintf("ledger:seq=%d", r.Seq)
			return nil
		}
	}
	retries, err := retryWithBackoff(ctx, c.cfg.Retry, save)
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
