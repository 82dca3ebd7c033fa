package lifecycle

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"bglpred/internal/faultinject"
	"bglpred/internal/ledger"
	"bglpred/internal/serve"
)

// fastRetry keeps backoff tests from actually sleeping.
var fastRetry = RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}

func TestCheckpointLandsAfterTransientFailures(t *testing.T) {
	meta, _, tail := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()
	post(t, s, encode(t, tail[:500]))

	in := faultinject.New(1)
	// The first two write attempts hit ENOSPC, then the disk "clears".
	in.Set(faultinject.FsWrite, faultinject.Plan{Err: faultinject.ENOSPC, Times: 2})
	dir := t.TempDir()
	c := NewCheckpointer(s, CheckpointerConfig{
		Dir:   dir,
		FS:    faultinject.NewFs(in, nil),
		Retry: fastRetry,
		Logf:  t.Logf,
	})
	info, err := c.CheckpointNow()
	if err != nil {
		t.Fatalf("checkpoint with 2 transient failures: %v", err)
	}
	if c.Saves() != 1 || c.Retries() != 2 || c.GiveUps() != 0 {
		t.Fatalf("saves=%d retries=%d giveups=%d, want 1/2/0", c.Saves(), c.Retries(), c.GiveUps())
	}
	if info.SHA256 == "" {
		t.Fatal("landed checkpoint has no hash")
	}
	// The landed file is intact: it loads through the clean filesystem.
	if _, _, err := LoadCheckpoint(ledger.OS, StatePath(dir)); err != nil {
		t.Fatalf("checkpoint written under faults does not load: %v", err)
	}
}

func TestCheckpointGiveUpIsDistinctAndPreservesPredecessor(t *testing.T) {
	meta, _, tail := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()
	post(t, s, encode(t, tail[:500]))

	dir := t.TempDir()
	// A good checkpoint lands first; the give-up must not clobber it.
	good := NewCheckpointer(s, CheckpointerConfig{Dir: dir, Retry: fastRetry})
	if _, err := good.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	before, _, err := LoadCheckpoint(ledger.OS, StatePath(dir))
	if err != nil {
		t.Fatal(err)
	}

	in := faultinject.New(1)
	in.Set(faultinject.FsWrite, faultinject.Plan{Err: faultinject.ENOSPC}) // every attempt fails
	c := NewCheckpointer(s, CheckpointerConfig{
		Dir:   dir,
		FS:    faultinject.NewFs(in, nil),
		Retry: fastRetry,
		Logf:  t.Logf,
	})
	_, err = c.CheckpointNow()
	if !errors.Is(err, ErrCheckpointGiveUp) {
		t.Fatalf("err = %v, want ErrCheckpointGiveUp", err)
	}
	if errors.Is(err, ErrModelPersistGiveUp) {
		t.Fatal("checkpoint give-up is not distinguishable from model-persist give-up")
	}
	if c.GiveUps() != 1 || c.Saves() != 0 || c.Retries() != int64(fastRetry.MaxAttempts-1) {
		t.Fatalf("saves=%d retries=%d giveups=%d, want 0/%d/1", c.Saves(), c.Retries(), c.GiveUps(), fastRetry.MaxAttempts-1)
	}
	// Crash-safety held: the previous complete checkpoint is untouched.
	after, _, err := LoadCheckpoint(ledger.OS, StatePath(dir))
	if err != nil {
		t.Fatalf("predecessor checkpoint destroyed by failed save: %v", err)
	}
	if !after.SavedAt.Equal(before.SavedAt) {
		t.Fatal("failed save replaced the previous checkpoint")
	}
}

func TestRetrainerPersistGiveUpAbortsSwap(t *testing.T) {
	meta, _, tail := fixture(t)
	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, Observer: rec.Observe})
	defer s.Close()
	post(t, s, encode(t, tail))

	in := faultinject.New(1)
	in.Set(faultinject.FsWrite, faultinject.Plan{Err: faultinject.ENOSPC})
	rt := NewRetrainer(s, rec, RetrainerConfig{
		MinEvents: 10,
		Dir:       t.TempDir(),
		FS:        faultinject.NewFs(in, nil),
		Retry:     fastRetry,
		Logf:      t.Logf,
	})
	rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute

	_, err := rt.RetrainNow()
	if !errors.Is(err, ErrModelPersistGiveUp) {
		t.Fatalf("err = %v, want ErrModelPersistGiveUp", err)
	}
	if errors.Is(err, ErrCheckpointGiveUp) {
		t.Fatal("give-up sentinels are not distinct")
	}
	if rt.PersistGiveUps() != 1 {
		t.Fatalf("PersistGiveUps = %d, want 1", rt.PersistGiveUps())
	}
	// The swap never happened: serving a model whose hash names bytes
	// that don't exist would poison every subsequent checkpoint.
	if got := s.Model(); got.Version != 1 {
		t.Fatalf("failed persist still swapped the model: %+v", got)
	}
}

func TestRetryBackoffStopsOnContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	cause := errors.New("disk on fire")
	_, err := retryWithBackoff(ctx, RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour}, func() error {
		calls++
		return cause
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled wrapped", err)
	}
	// Both halves stay in the chain: cancellation for the shutdown
	// paths, the op error for diagnosis.
	if !errors.Is(err, cause) {
		t.Fatalf("err = %v lost the underlying cause from the error chain", err)
	}
	if !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("err = %v lost the underlying cause", err)
	}
	if calls != 1 {
		t.Fatalf("op ran %d times under a cancelled ctx, want 1", calls)
	}
}

// TestCheckpointRestoreCorruptionMatrix proves the restore path fails
// with a distinct, diagnosable error for each injected corruption
// shape — truncation, a payload bit flip (SHA mismatch), and a failed
// commit rename — instead of silently restoring garbage state.
func TestCheckpointRestoreCorruptionMatrix(t *testing.T) {
	meta, _, tail := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()
	post(t, s, encode(t, tail[:500]))

	dir := t.TempDir()
	c := NewCheckpointer(s, CheckpointerConfig{Dir: dir, Retry: fastRetry})
	if _, err := c.CheckpointNow(); err != nil {
		t.Fatal(err)
	}

	t.Run("truncated snapshot", func(t *testing.T) {
		in := faultinject.New(1)
		in.Set(faultinject.FsCorrupt, faultinject.Plan{Corrupt: faultinject.Truncate})
		_, _, err := LoadCheckpoint(faultinject.NewFs(in, nil), StatePath(dir))
		if err == nil || !strings.Contains(err.Error(), "header declares") {
			t.Fatalf("truncated restore error = %v, want the length-mismatch diagnosis", err)
		}
	})

	t.Run("payload bit flip", func(t *testing.T) {
		in := faultinject.New(1)
		in.Set(faultinject.FsCorrupt, faultinject.Plan{Corrupt: faultinject.FlipByte})
		_, _, err := LoadCheckpoint(faultinject.NewFs(in, nil), StatePath(dir))
		if err == nil || !strings.Contains(err.Error(), "SHA-256 mismatch") {
			t.Fatalf("bit-flip restore error = %v, want the checksum diagnosis", err)
		}
	})

	t.Run("failed rename leaves predecessor", func(t *testing.T) {
		before, _, err := LoadCheckpoint(ledger.OS, StatePath(dir))
		if err != nil {
			t.Fatal(err)
		}
		in := faultinject.New(1)
		in.Set(faultinject.FsRename, faultinject.Plan{})
		cc := NewCheckpointer(s, CheckpointerConfig{
			Dir:   dir,
			FS:    faultinject.NewFs(in, nil),
			Retry: RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		})
		if _, err := cc.CheckpointNow(); !errors.Is(err, ErrCheckpointGiveUp) || !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("rename-failure error = %v, want give-up wrapping the injected fault", err)
		}
		after, _, err := LoadCheckpoint(ledger.OS, StatePath(dir))
		if err != nil || !after.SavedAt.Equal(before.SavedAt) {
			t.Fatalf("failed rename disturbed the committed checkpoint: %v", err)
		}
	})

	// The uncorrupted file still restores into a fresh server.
	fresh := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute})
	defer fresh.Close()
	if cp, err := RestoreMatching(fresh, dir, nil, "", t.Logf); err != nil || cp == nil {
		t.Fatalf("clean restore after the matrix: cp=%v err=%v", cp, err)
	}
}
