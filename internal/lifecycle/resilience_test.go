package lifecycle

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
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
	dir := t.TempDir()
	led := openTestLedger(t, dir, ledger.Config{FS: faultinject.NewFs(in, nil)})
	// The first two append writes hit ENOSPC, then the disk "clears".
	in.Set(faultinject.FsWrite, faultinject.Plan{Err: faultinject.ENOSPC, Times: 2})
	c := NewCheckpointer(s, CheckpointerConfig{
		Ledger: led,
		Dir:    dir,
		Retry:  fastRetry,
		Logf:   t.Logf,
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
	// The landed entry is intact: it loads from the ledger reopened
	// through the clean filesystem.
	led.Close()
	if _, _, ok, err := LoadCheckpointFromLedger(openTestLedger(t, dir, ledger.Config{})); err != nil || !ok {
		t.Fatalf("checkpoint written under faults does not load: ok=%v err=%v", ok, err)
	}
}

func TestCheckpointGiveUpIsDistinctAndPreservesPredecessor(t *testing.T) {
	meta, _, tail := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()
	post(t, s, encode(t, tail[:500]))

	in := faultinject.New(1)
	dir := t.TempDir()
	led := openTestLedger(t, dir, ledger.Config{FS: faultinject.NewFs(in, nil)})
	// A good checkpoint lands first; the give-up must not clobber it.
	good := NewCheckpointer(s, CheckpointerConfig{Ledger: led, Dir: dir, Retry: fastRetry})
	if _, err := good.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	before, _, _, err := LoadCheckpointFromLedger(led)
	if err != nil {
		t.Fatal(err)
	}

	in.Set(faultinject.FsWrite, faultinject.Plan{Err: faultinject.ENOSPC}) // every attempt fails
	c := NewCheckpointer(s, CheckpointerConfig{
		Ledger: led,
		Dir:    dir,
		Retry:  fastRetry,
		Logf:   t.Logf,
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
	// Crash-safety held: the previous complete checkpoint is still the
	// newest one.
	after, _, ok, err := LoadCheckpointFromLedger(led)
	if err != nil || !ok {
		t.Fatalf("predecessor checkpoint destroyed by failed save: ok=%v err=%v", ok, err)
	}
	if !after.SavedAt.Equal(before.SavedAt) {
		t.Fatal("failed save replaced the previous checkpoint")
	}
}

// TestPersistIntoClosedLedgerGivesUpAtOnce: a closed ledger never
// takes an append again, so neither the checkpoint nor the retrainer's
// model record spends its backoff schedule on one (the default policy
// would sleep ~750 ms over four retries).
func TestPersistIntoClosedLedgerGivesUpAtOnce(t *testing.T) {
	meta, _, tail := fixture(t)
	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
	defer s.Close()
	post(t, s, encode(t, tail))

	dir := t.TempDir()
	led := openTestLedger(t, dir, ledger.Config{})
	led.Close()

	c := NewCheckpointer(s, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf})
	_, err := c.CheckpointNow()
	if !errors.Is(err, ErrCheckpointGiveUp) || !errors.Is(err, ledger.ErrClosed) {
		t.Fatalf("err = %v, want ErrCheckpointGiveUp wrapping ledger.ErrClosed", err)
	}
	if c.Retries() != 0 || c.GiveUps() != 1 || c.Saves() != 0 {
		t.Fatalf("saves=%d retries=%d giveups=%d, want 0/0/1", c.Saves(), c.Retries(), c.GiveUps())
	}

	rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Dir: dir, Ledger: led, Logf: t.Logf})
	rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute
	if _, err := rt.RetrainNow(); err != nil {
		t.Fatalf("a lost audit entry must not fail the retrain: %v", err)
	}
	if rt.PersistRetries() != 0 {
		t.Fatalf("model record into a closed ledger spent %d retries, want 0", rt.PersistRetries())
	}
}

// TestCheckpointerWithoutLedgerRefuses: with nowhere to write or read
// a checkpoint, both directions fail at once, with no retry.
func TestCheckpointerWithoutLedgerRefuses(t *testing.T) {
	meta, _, _ := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 1})
	defer s.Close()
	c := NewCheckpointer(s, CheckpointerConfig{Dir: t.TempDir()})
	if _, err := c.CheckpointNow(); err == nil {
		t.Fatal("checkpoint without a ledger succeeded")
	}
	if c.Retries() != 0 || c.Saves() != 0 {
		t.Fatalf("saves=%d retries=%d, want 0/0", c.Saves(), c.Retries())
	}
	if cp, err := c.Restore(""); cp != nil || err == nil {
		t.Fatalf("restore without a ledger: cp=%v err=%v, want an error", cp, err)
	}
}

func TestRetrainerPersistGiveUpAbortsSwap(t *testing.T) {
	meta, _, tail := fixture(t)
	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
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
// shape — a truncated read, a bit flip, damaged envelope bytes, and a
// failed commit fsync — instead of silently restoring garbage state.
func TestCheckpointRestoreCorruptionMatrix(t *testing.T) {
	meta, _, tail := fixture(t)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute})
	defer s.Close()
	post(t, s, encode(t, tail[:500]))

	in := faultinject.New(1)
	fsys := faultinject.NewFs(in, nil)
	dir := t.TempDir()
	// Anchoring every commit pins the checkpoint: no reopen may drop it
	// as a torn tail.
	led := openTestLedger(t, dir, ledger.Config{FS: fsys, AnchorEvery: 1})
	c := NewCheckpointer(s, CheckpointerConfig{Ledger: led, Dir: dir, Retry: fastRetry})
	if _, err := c.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	fresh := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute})
	defer fresh.Close()
	restorer := NewCheckpointer(fresh, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf})

	t.Run("truncated read", func(t *testing.T) {
		in.Set(faultinject.FsCorrupt, faultinject.Plan{Corrupt: faultinject.Truncate})
		defer in.Set(faultinject.FsCorrupt, faultinject.Plan{After: math.MaxInt}) // disarm: a plan that never fires
		cp, err := restorer.Restore("")
		if cp != nil || !errors.Is(err, ledger.ErrCorrupt) || !strings.Contains(err.Error(), "shorter than indexed entry") {
			t.Fatalf("truncated restore: cp=%v err=%v, want the length diagnosis", cp, err)
		}
	})

	t.Run("bit flip on reopen", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), LedgerFile)
		copyLedger(t, LedgerPath(dir), path)
		in.Set(faultinject.FsCorrupt, faultinject.Plan{Corrupt: faultinject.FlipByte, Times: 1})
		defer in.Set(faultinject.FsCorrupt, faultinject.Plan{After: math.MaxInt}) // disarm: a plan that never fires
		l, _, err := ledger.Open(path, ledger.Config{FS: fsys})
		if err == nil {
			l.Close()
		}
		if !errors.Is(err, ledger.ErrTampered) && !errors.Is(err, ledger.ErrCorrupt) {
			t.Fatalf("bit-flipped reopen error = %v, want ErrTampered or ErrCorrupt", err)
		}
	})

	t.Run("envelope damage", func(t *testing.T) {
		seq, _ := led.LastSeqOf(ledger.KindCheckpoint)
		_, payload, err := led.Payload(seq)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = DecodeCheckpoint(payload[:len(payload)/2])
		if err == nil || !strings.Contains(err.Error(), "header declares") {
			t.Fatalf("truncated envelope error = %v, want the length-mismatch diagnosis", err)
		}
		payload[len(payload)-1] ^= 0x01
		_, _, err = DecodeCheckpoint(payload)
		if err == nil || !strings.Contains(err.Error(), "SHA-256 mismatch") {
			t.Fatalf("bit-flipped envelope error = %v, want the checksum diagnosis", err)
		}
	})

	t.Run("failed fsync leaves predecessor", func(t *testing.T) {
		before, _, _, err := LoadCheckpointFromLedger(led)
		if err != nil {
			t.Fatal(err)
		}
		in.Set(faultinject.FsSync, faultinject.Plan{})
		defer in.Set(faultinject.FsSync, faultinject.Plan{After: math.MaxInt}) // disarm: a plan that never fires
		cc := NewCheckpointer(s, CheckpointerConfig{
			Ledger: led,
			Dir:    dir,
			Retry:  RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		})
		if _, err := cc.CheckpointNow(); !errors.Is(err, ErrCheckpointGiveUp) || !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("fsync-failure error = %v, want give-up wrapping the injected fault", err)
		}
		after, _, _, err := LoadCheckpointFromLedger(led)
		if err != nil || !after.SavedAt.Equal(before.SavedAt) {
			t.Fatalf("failed fsync disturbed the committed checkpoint: %v", err)
		}
	})

	// The uncorrupted ledger still restores into the fresh server.
	if cp, err := restorer.Restore(""); err != nil || cp == nil {
		t.Fatalf("clean restore after the matrix: cp=%v err=%v", cp, err)
	}
}

// copyLedger copies a ledger file and its anchor sidecar.
func copyLedger(t *testing.T, from, to string) {
	t.Helper()
	for _, suffix := range []string{"", ".anchor"} {
		data, err := os.ReadFile(from + suffix)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(to+suffix, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRetrainerLostCopyKeepsTheSwap: a versioned copy whose link never
// lands costs only the copy. The retrain swaps and reports the model,
// the retries are counted, and no staging name is left behind.
func TestRetrainerLostCopyKeepsTheSwap(t *testing.T) {
	meta, _, tail := fixture(t)
	rec := NewRecorder(0, 0)
	s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, OnRecord: rec.Shard})
	defer s.Close()
	post(t, s, encode(t, tail))

	in := faultinject.New(1)
	in.Set(faultinject.FsLink, faultinject.Plan{})
	dir := t.TempDir()
	rt := NewRetrainer(s, rec, RetrainerConfig{
		MinEvents: 10,
		Dir:       dir,
		FS:        faultinject.NewFs(in, nil),
		Retry:     fastRetry,
		Logf:      t.Logf,
	})
	rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute

	info, err := rt.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Model(); got.Version != info.Version || got.SHA256 != info.SHA256 {
		t.Fatalf("server serves %+v, the retrain reported %+v", got, info)
	}
	if in.Fires(faultinject.FsLink) < 2 || rt.PersistRetries() == 0 {
		t.Fatalf("%d link faults and %d retries: the copy was not retried", in.Fires(faultinject.FsLink), rt.PersistRetries())
	}
	if rt.PersistGiveUps() != 0 {
		t.Fatalf("a lost copy counted as %d persist give-ups", rt.PersistGiveUps())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != ModelFile {
		t.Fatalf("directory holds %v, want the active artifact alone", entries)
	}
}
