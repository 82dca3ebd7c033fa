package lifecycle

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"bglpred/internal/ledger"
	"bglpred/internal/model"
	"bglpred/internal/predictor"
	"bglpred/internal/raslog"
	"bglpred/internal/serve"
)

func openTestLedger(t *testing.T, dir string, cfg ledger.Config) *ledger.Ledger {
	t.Helper()
	led, _, err := ledger.Open(LedgerPath(dir), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { led.Close() })
	return led
}

// TestCheckpointerLedgerRoundTrip: the checkpointer persists through
// the ledger's group-commit path and Restore resumes from the ledgered
// snapshot.
func TestCheckpointerLedgerRoundTrip(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	led := openTestLedger(t, dir, ledger.Config{})

	s := serve.New(meta, serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: "aaaa"}})
	post(t, s, encode(t, tail[:200]))
	ck := NewCheckpointer(s, CheckpointerConfig{Dir: dir, Ledger: led})
	if !ck.LastSaved().IsZero() {
		t.Fatal("LastSaved non-zero before any checkpoint")
	}
	info, err := ck.CheckpointNow()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.Path, "ledger:seq=") {
		t.Fatalf("ledger-mode checkpoint path %q", info.Path)
	}
	if ck.LastSaved().IsZero() {
		t.Fatal("LastSaved still zero after a durable checkpoint")
	}
	want := s.ExportShards()
	s.Close()

	fresh := serve.New(meta, serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: "aaaa"}})
	defer fresh.Close()
	cp, err := NewCheckpointer(fresh, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf}).Restore("aaaa")
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("no checkpoint restored from the ledger")
	}
	if len(cp.Shards) != len(want) {
		t.Fatalf("restored %d shards, checkpointed %d", len(cp.Shards), len(want))
	}
}

// TestRestoreAfterTornUpgrade is the crash-between-writes
// acceptance test: a retrain's artifact rename lands, the process dies
// before the next checkpoint, and the restart boots the new model with
// the old model's state in the ledger. Restore must notice the SHA
// mismatch, hunt down the artifact the checkpoint was actually taken
// against, and restore that matching pair — and the ledger's
// provenance chain must pinpoint the lost write.
func TestRestoreAfterTornUpgrade(t *testing.T) {
	meta, artOld, tail := fixture(t)
	dir := t.TempDir()
	led := openTestLedger(t, dir, ledger.Config{})

	// Generation 1: the old artifact, both active and versioned.
	oldInfo, err := artOld.Save(VersionedModelPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}

	// A server runs the old model and checkpoints against it.
	s := serve.New(meta, serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: oldInfo.SHA256}})
	post(t, s, encode(t, tail[:200]))
	if _, err := NewCheckpointer(s, CheckpointerConfig{Dir: dir, Ledger: led}).CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Generation 2 begins: the retrain's artifact rename lands (a new
	// active artifact with a different SHA, its provenance chained into
	// the ledger) — and then the process dies before any checkpoint
	// against it.
	artNew, err := model.FromMeta(meta, model.Provenance{Source: "torn upgrade", TrainedAt: time.Now().UTC()})
	if err != nil {
		t.Fatal(err)
	}
	newInfo, err := artNew.Save(ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if newInfo.SHA256 == oldInfo.SHA256 {
		t.Fatal("fixture degenerate: both generations hash identically")
	}
	payload, err := json.Marshal(ModelLedgerRecord{Version: 2, SHA256: newInfo.SHA256, Path: ModelPath(dir)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := led.Append(ledger.KindModel, payload); err != nil {
		t.Fatal(err)
	}

	// The ledger pinpoints the torn upgrade: the newest model record
	// names a SHA no checkpoint ever referenced.
	modelRec, ok, err := LastModelRecord(led)
	if err != nil || !ok {
		t.Fatalf("model record: ok=%v err=%v", ok, err)
	}
	cpFromLedger, _, ok, err := LoadCheckpointFromLedger(led)
	if err != nil || !ok {
		t.Fatalf("ledgered checkpoint: ok=%v err=%v", ok, err)
	}
	if modelRec.SHA256 != newInfo.SHA256 || cpFromLedger.ModelSHA256 != oldInfo.SHA256 {
		t.Fatalf("provenance chain does not pinpoint the lost write: model %.12s vs checkpoint %.12s",
			modelRec.SHA256, cpFromLedger.ModelSHA256)
	}

	// Restart: the boot path loads the new active artifact, but the
	// only checkpoint names the old model. The matching pair wins.
	fresh := serve.New(meta, serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: newInfo.SHA256}})
	defer fresh.Close()
	cp, err := NewCheckpointer(fresh, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf}).Restore(newInfo.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil {
		t.Fatal("matching pair discarded: cold start despite an intact old artifact")
	}
	if got := fresh.Model().SHA256; got != oldInfo.SHA256 {
		t.Fatalf("restored server runs model %.12s, want the checkpoint's %.12s", got, oldInfo.SHA256)
	}
	if got, want := fresh.Model().Rules, meta.Rule.Rules().Len(); got != want || want == 0 {
		t.Fatalf("restored server reports %d rules, the checkpoint's artifact mined %d", got, want)
	}

	// With the matching artifact gone too, mismatched state must not be
	// served: cold start, not a silent mispair.
	if err := os.Remove(VersionedModelPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	cold := serve.New(meta, serve.Config{Shards: 2, Model: serve.ModelInfo{SHA256: newInfo.SHA256}})
	defer cold.Close()
	cp, err = NewCheckpointer(cold, CheckpointerConfig{Ledger: led, Dir: dir, Logf: t.Logf}).Restore(newInfo.SHA256)
	if err != nil {
		t.Fatal(err)
	}
	if cp != nil {
		t.Fatal("restored state against a model that does not match it")
	}
	if got := cold.Model().SHA256; got != newInfo.SHA256 {
		t.Fatalf("cold start swapped models anyway: %.12s", got)
	}
}

// TestRetrainerChainsModelProvenance: a successful retrain appends a
// KindModel record naming the generation it produced.
func TestRetrainerChainsModelProvenance(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	led := openTestLedger(t, dir, ledger.Config{})

	s := serve.New(meta, serve.Config{Shards: 1, Window: 30 * time.Minute})
	defer s.Close()
	rec := NewRecorder(0, 0)
	for i := range tail {
		rec.Observe(tail[i])
	}
	rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 1, Dir: dir, Ledger: led, Logf: t.Logf})
	info, err := rt.RetrainNow()
	if err != nil {
		t.Fatal(err)
	}

	mrec, ok, err := LastModelRecord(led)
	if err != nil || !ok {
		t.Fatalf("no model record after a retrain: ok=%v err=%v", ok, err)
	}
	if mrec.SHA256 != info.SHA256 || mrec.Version != info.Version {
		t.Fatalf("ledgered %+v, retrain produced v%d %.12s", mrec, info.Version, info.SHA256)
	}
	if mrec.Path != VersionedModelPath(dir, info.Version) {
		t.Fatalf("ledgered path %s", mrec.Path)
	}
	if _, err := os.Stat(filepath.Join(dir, "model-v2.bglm")); err != nil && mrec.Path == filepath.Join(dir, "model-v2.bglm") {
		t.Fatalf("ledgered path does not exist: %v", err)
	}
}

// TestMatchModelPrefersNewestGeneration: with no active artifact and
// versioned copies of generations 2, 9 and 10 that all match, the copy
// of generation 10 is verified first, not 9, which sorts after "10" as
// a string.
func TestMatchModelPrefersNewestGeneration(t *testing.T) {
	_, art, _ := fixture(t)
	dir := t.TempDir()
	var sha string
	for _, gen := range []int64{2, 9, 10} {
		info, err := art.Save(VersionedModelPath(dir, gen))
		if err != nil {
			t.Fatal(err)
		}
		sha = info.SHA256
	}
	got, err := MatchModelForCheckpoint(dir, sha)
	if err != nil {
		t.Fatal(err)
	}
	if want := VersionedModelPath(dir, 10); got != want {
		t.Fatalf("matched %s first, want the newest generation's %s", got, want)
	}
}

// TestRestartNumbersRetrainsAboveRecordedGenerations runs two server
// and retrainer lifetimes over one directory and ledger. The second
// boots the active artifact the first left behind, so it takes that
// generation's number, and its first retrain is numbered one above it:
// every model-v<N>.bglm the first lifetime recorded still hashes to its
// ledger record.
func TestRestartNumbersRetrainsAboveRecordedGenerations(t *testing.T) {
	meta, _, tail := fixture(t)
	dir := t.TempDir()
	lifetime := func(meta *predictor.Meta, boot serve.ModelInfo, bodies ...[]raslog.Event) []serve.ModelInfo {
		t.Helper()
		led, _, err := ledger.Open(LedgerPath(dir), ledger.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer led.Close()
		if boot, err = BootModel(led, boot); err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(0, 0)
		s := serve.New(meta, serve.Config{Shards: 2, Window: 30 * time.Minute, Model: boot, OnRecord: rec.Shard})
		defer s.Close()
		rt := NewRetrainer(s, rec, RetrainerConfig{MinEvents: 10, Dir: dir, Ledger: led, Logf: t.Logf})
		rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute
		infos := []serve.ModelInfo{s.Model()}
		for _, body := range bodies {
			post(t, s, encode(t, body))
			info, err := rt.RetrainNow()
			if err != nil {
				t.Fatal(err)
			}
			infos = append(infos, info)
		}
		return infos
	}

	third := len(tail) / 3
	first := lifetime(meta, serve.ModelInfo{}, tail[:third], tail[third:2*third])
	if got := []int64{first[0].Version, first[1].Version, first[2].Version}; !slices.Equal(got, []int64{1, 2, 3}) {
		t.Fatalf("first lifetime's generations %v, want [1 2 3]", got)
	}
	art, info, err := model.Load(ModelPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	restarted, err := art.Meta()
	if err != nil {
		t.Fatal(err)
	}
	second := lifetime(restarted, serve.ModelInfo{SHA256: info.SHA256}, tail)
	if second[0].Version != 3 || second[1].Version != 4 {
		t.Fatalf("restart booted v%d and retrained v%d, want v3 and v4", second[0].Version, second[1].Version)
	}
	if second[1].SHA256 == first[1].SHA256 {
		t.Fatal("the restart's retrain equals generation 2, so an overwrite would not show")
	}

	led := openTestLedger(t, dir, ledger.Config{})
	var versions []int64
	head, _ := led.Head()
	for seq := uint64(0); seq < head; seq++ {
		view, payload, err := led.Payload(seq)
		if err != nil {
			t.Fatal(err)
		}
		if view.Kind != ledger.KindModel {
			continue
		}
		var mrec ModelLedgerRecord
		if err := json.Unmarshal(payload, &mrec); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, mrec.Version)
		if got, err := model.Verify(mrec.Path); err != nil || got.SHA256 != mrec.SHA256 {
			t.Errorf("%s hashes to %.12s (err %v), its ledger record says v%d %.12s", mrec.Path, got.SHA256, err, mrec.Version, mrec.SHA256)
		}
	}
	if !slices.Equal(versions, []int64{2, 3, 4}) {
		t.Fatalf("ledger records generations %v, want [2 3 4]", versions)
	}
	if other, err := BootModel(led, serve.ModelInfo{SHA256: "another model"}); err != nil || other.Version != 5 {
		t.Fatalf("a boot model the newest record does not name is v%d (err %v), want v5", other.Version, err)
	}
}
