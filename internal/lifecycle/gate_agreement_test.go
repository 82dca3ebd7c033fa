package lifecycle

import (
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"bglpred/internal/cluster"
	"bglpred/internal/model"
	"bglpred/internal/serve"
)

// TestGateAgreesAfterIdenticalTrainings runs two real servers, each
// with its own recorder, retrainer and model directory, behind a real
// cluster.Gate, as two `bglserved -checkpoint-dir` backends run behind
// bglgate. Each boots on an artifact it packaged and saved itself, both
// take the same records, and a reload through the gate retrains both.
// The gate must find one agreed model at boot and after the reload,
// and no backend may end skewed.
func TestGateAgreesAfterIdenticalTrainings(t *testing.T) {
	meta, _, tail := fixture(t)
	body := encode(t, tail)
	var urls []string
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		art, err := model.FromMeta(meta, model.Provenance{TrainedAt: time.Now().UTC(), Source: "gate agreement"})
		if err != nil {
			t.Fatal(err)
		}
		saved, err := art.Save(ModelPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		rec := NewRecorder(2000*time.Hour, 0) // the whole tail, not the default 6 h of it
		var rt *Retrainer
		srv := serve.New(meta, serve.Config{
			Shards:   1,
			Window:   30 * time.Minute,
			OnRecord: rec.Shard,
			Model:    serve.ModelInfo{SHA256: saved.SHA256, Source: "gate agreement"},
			Reload: func() error {
				_, err := rt.RetrainNow()
				return err
			},
		})
		t.Cleanup(func() { srv.Close() })
		rt = NewRetrainer(srv, rec, RetrainerConfig{MinEvents: 10, Dir: dir, Logf: t.Logf})
		// Pin the rule window so the test skips the 12-candidate sweep.
		rt.cfg.Pipeline.Rule.RuleGenWindow = 15 * time.Minute
		post(t, srv, body)
		hs := httptest.NewServer(srv)
		t.Cleanup(hs.Close)
		urls = append(urls, hs.URL)
	}
	g, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	agreed := func(when string) string {
		t.Helper()
		g.ProbeNow()
		rec := httptest.NewRecorder()
		g.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/cluster/status", nil))
		var st cluster.StatusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.AgreedSHA == "" {
			t.Fatalf("%s: no agreed model: %s", when, rec.Body)
		}
		for _, b := range st.Backends {
			if b.State != "up" || b.ModelSHA != st.AgreedSHA {
				t.Fatalf("%s: backend %s is %s on model %.12s, agreed %.12s", when, b.URL, b.State, b.ModelSHA, st.AgreedSHA)
			}
		}
		return st.AgreedSHA
	}
	boot := agreed("at boot")

	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/model/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("reload through the gate: %d %s", rec.Code, rec.Body)
	}
	if after := agreed("after the reload"); after == boot {
		t.Fatalf("the reload left the boot model %.12s in place", boot)
	}
}

// TestModelBytesIgnoreGobHistory packages one training in three fresh
// processes, this test binary run again: one encodes nothing before
// the model, one a checkpoint, as a backend that checkpointed before
// its first retrain does, and one gob-encodes a type no part of the
// tree persists. Gob numbers types in the order a process first
// encodes them; artifacts are not gob, so all three must get one
// SHA-256.
func TestModelBytesIgnoreGobHistory(t *testing.T) {
	const child = "BGLPRED_GOB_HISTORY_CHILD"
	if first := os.Getenv(child); first != "" {
		switch first {
		case "checkpoint":
			if _, _, err := encodeCheckpoint(&Checkpoint{ModelSHA256: "x"}); err != nil {
				t.Fatal(err)
			}
		case "unrelated":
			type unrelated struct {
				Name  string
				Items map[string][]float64
			}
			if err := gob.NewEncoder(io.Discard).Encode(unrelated{Name: "x", Items: map[string][]float64{"a": {1}}}); err != nil {
				t.Fatal(err)
			}
		}
		meta, _, _ := fixture(t)
		art, err := model.FromMeta(meta, model.Provenance{Source: "gob history"})
		if err != nil {
			t.Fatal(err)
		}
		_, info, err := art.Encode()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Printf("sha %s\n", info.SHA256)
		return
	}
	var shas []string
	for _, first := range []string{"model", "checkpoint", "unrelated"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestModelBytesIgnoreGobHistory$", "-test.count=1")
		cmd.Env = append(os.Environ(), child+"="+first)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s first: %v\n%s", first, err, out)
		}
		_, rest, ok := strings.Cut(string(out), "sha ")
		if !ok || len(rest) < 64 {
			t.Fatalf("%s first: no SHA in\n%s", first, out)
		}
		shas = append(shas, rest[:64])
	}
	if shas[0] != shas[1] || shas[0] != shas[2] {
		t.Fatalf("one training, several SHAs: %.12s with the model encoded first, %.12s after a checkpoint, %.12s after an unrelated type", shas[0], shas[1], shas[2])
	}
}
