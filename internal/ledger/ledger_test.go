package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func openT(t *testing.T, path string, cfg Config) (*Ledger, OpenResult) {
	t.Helper()
	l, res, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, res
}

func TestAppendReopenRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.bgll")
	l, res := openT(t, path, Config{})
	if !res.Created {
		t.Fatalf("expected fresh ledger, got %+v", res)
	}

	var receipts []Receipt
	for i := 0; i < 10; i++ {
		r, err := l.Append(KindAlert, []byte(fmt.Sprintf("alert-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := r.Proof.Verify(); err != nil {
			t.Fatalf("receipt proof %d: %v", i, err)
		}
		receipts = append(receipts, r)
	}
	wantSeq, wantRoot := l.Head()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, res2 := openT(t, path, Config{})
	defer l2.Close()
	if res2.Created || res2.TruncatedBytes != 0 {
		t.Fatalf("reopen: %+v", res2)
	}
	if res2.Entries != 10 {
		t.Fatalf("reopen entries = %d, want 10", res2.Entries)
	}
	gotSeq, gotRoot := l2.Head()
	if gotSeq != wantSeq || gotRoot != wantRoot {
		t.Fatalf("head after reopen = (%d, %s), want (%d, %s)", gotSeq, gotRoot, wantSeq, wantRoot)
	}
	for _, r := range receipts {
		p, err := l2.ProofOf(r.Seq)
		if err != nil {
			t.Fatalf("proof of %d after reopen: %v", r.Seq, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("proof of %d fails verify: %v", r.Seq, err)
		}
		if p.Root != r.Proof.Root || p.ChainRoot != r.Proof.ChainRoot {
			t.Fatalf("proof of %d diverges after reopen:\n got %+v\nwant %+v", r.Seq, p, r.Proof)
		}
	}
	ev, payload, err := l2.Payload(receipts[3].Seq)
	if err != nil {
		t.Fatalf("payload: %v", err)
	}
	if ev.Kind != KindAlert || string(payload) != "alert-3" {
		t.Fatalf("payload = %s %q", ev.Kind, payload)
	}
}

// slowSyncFS delays every fsync so concurrent appenders pile up behind
// the in-flight commit — making group-commit coalescing deterministic
// rather than a race the scheduler may or may not produce.
type slowSyncFS struct{ FS }

type slowSyncFile struct{ File }

func (f slowSyncFS) OpenAppend(path string) (File, error) {
	base, err := f.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{base}, nil
}

func (f slowSyncFile) Sync() error {
	time.Sleep(2 * time.Millisecond)
	return f.File.Sync()
}

// syncCountFS counts the fsyncs beyond the append handle's own group
// commits: directory fsyncs, and fsyncs of files staged through
// CreateTemp (the anchor sidecar).
type syncCountFS struct {
	FS
	dirSyncs, stagedSyncs int
}

type countSyncFile struct {
	File
	syncs *int
}

func (f *syncCountFS) SyncDir(dir string) error {
	f.dirSyncs++
	return f.FS.SyncDir(dir)
}

func (f *syncCountFS) CreateTemp(dir, pattern string) (File, error) {
	base, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return countSyncFile{base, &f.stagedSyncs}, nil
}

func (f countSyncFile) Sync() error {
	*f.syncs++
	return f.File.Sync()
}

// TestLedgerDirectoryFsync: creating a ledger makes its directory
// entry durable once; periodic anchors issue no fsync of any kind; and
// Close's seal fsyncs the anchor and its directory through
// WriteFileAtomic.
func TestLedgerDirectoryFsync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.bgll")
	fsys := &syncCountFS{FS: OS}
	check := func(when string, dirSyncs, stagedSyncs int) {
		t.Helper()
		if fsys.dirSyncs != dirSyncs || fsys.stagedSyncs != stagedSyncs {
			t.Fatalf("%s: %d directory and %d staged-file fsyncs, want %d and %d",
				when, fsys.dirSyncs, fsys.stagedSyncs, dirSyncs, stagedSyncs)
		}
	}
	l, _ := openT(t, path, Config{FS: fsys, AnchorEvery: 1})
	check("after create", 1, 0)
	for i := 0; i < 4; i++ {
		if _, err := l.Append(KindAlert, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if l.AnchorSeq() == 0 {
		t.Fatal("no periodic anchor landed")
	}
	check("after periodic anchors", 1, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	check("after the sealing anchor", 2, 1)

	// Reopening an existing ledger creates no directory entry.
	l2, _ := openT(t, path, Config{FS: fsys, AnchorEvery: -1})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	check("after reopen", 2, 1)
}

func TestConcurrentAppendsShareCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.bgll")
	l, _ := openT(t, path, Config{FS: slowSyncFS{OS}})
	defer l.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	recs := make([]Receipt, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs[i], errs[i] = l.Append(KindIngest, []byte(fmt.Sprintf("batch-%d", i)))
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("append %d: %v", i, errs[i])
		}
		if seen[recs[i].Seq] {
			t.Fatalf("duplicate seq %d", recs[i].Seq)
		}
		seen[recs[i].Seq] = true
		if err := recs[i].Proof.Verify(); err != nil {
			t.Fatalf("proof %d: %v", i, err)
		}
	}
	if c := l.Commits(); c > n/2 {
		t.Fatalf("no batching: %d commits for %d appends", c, n)
	}
	sum, err := VerifyFile(nil, path, nil)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if sum.Entries != n {
		t.Fatalf("verify entries = %d, want %d", sum.Entries, n)
	}
}

func TestVerifyFileVisitsEntriesInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.bgll")
	l, _ := openT(t, path, Config{})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(KindModel, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var got []byte
	sum, err := VerifyFile(nil, path, func(e ScanEntry) error {
		if e.Kind != KindModel {
			t.Fatalf("unexpected kind %s", e.Kind)
		}
		got = append(got, e.Payload...)
		return nil
	})
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if string(got) != "\x00\x01\x02\x03\x04" {
		t.Fatalf("visited payloads out of order: %v", got)
	}
	if !sum.Anchored {
		t.Fatal("close did not anchor")
	}
}

func TestTamperDetection(t *testing.T) {
	build := func(t *testing.T) (string, []byte) {
		path := filepath.Join(t.TempDir(), "audit.bgll")
		l, _ := openT(t, path, Config{})
		for i := 0; i < 12; i++ {
			if _, err := l.Append(KindAlert, []byte(fmt.Sprintf("payload-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, data
	}

	check := func(t *testing.T, path string) {
		t.Helper()
		if _, err := VerifyFile(nil, path, nil); err == nil {
			t.Fatal("VerifyFile accepted tampered ledger")
		}
		if _, _, err := Open(path, Config{}); err == nil {
			t.Fatal("Open accepted tampered ledger")
		}
	}

	t.Run("flip-body-byte", func(t *testing.T) {
		path, data := build(t)
		data[headerLen+recordPrefix+bodyPrefix+2] ^= 0x40
		os.WriteFile(path, data, 0o644)
		check(t, path)
	})
	t.Run("flip-chain-byte", func(t *testing.T) {
		path, data := build(t)
		// First record's stored chain hash (anchored file, so the
		// resulting "tear" classification trips the anchor bound).
		body, _, _, ok := parseRecord(data, headerLen)
		if !ok {
			t.Fatal("parse")
		}
		data[headerLen+recordPrefix+len(body)+5] ^= 0x01
		os.WriteFile(path, data, 0o644)
		check(t, path)
	})
	t.Run("flip-length-field", func(t *testing.T) {
		path, data := build(t)
		data[headerLen+1] ^= 0xff
		os.WriteFile(path, data, 0o644)
		check(t, path)
	})
	t.Run("truncate-below-anchor", func(t *testing.T) {
		path, data := build(t)
		os.WriteFile(path, data[:len(data)/2], 0o644)
		check(t, path)
	})
	t.Run("bad-magic", func(t *testing.T) {
		path, data := build(t)
		data[0] = 'X'
		os.WriteFile(path, data, 0o644)
		check(t, path)
	})
	t.Run("rewritten-history-under-anchor", func(t *testing.T) {
		path, _ := build(t)
		// Forge a shorter but internally consistent ledger in place:
		// the chain verifies, but the anchor pins the longer history.
		forged := filepath.Join(filepath.Dir(path), "forged.bgll")
		fl, _ := openT(t, forged, Config{AnchorEvery: -1})
		if _, err := fl.Append(KindAlert, []byte("innocent")); err != nil {
			t.Fatal(err)
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		fdata, err := os.ReadFile(forged)
		if err != nil {
			t.Fatal(err)
		}
		os.WriteFile(path, fdata, 0o644)
		check(t, path)
	})
}

func TestTornTailTruncatedOnReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.bgll")
	l, _ := openT(t, path, Config{AnchorEvery: -1})
	for i := 0; i < 4; i++ {
		if _, err := l.Append(KindIngest, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	commitEnd := int64(len(data))

	// Simulate a kill mid-commit: half of a fifth batch lands.
	l2, _ := openT(t, path, Config{AnchorEvery: -1})
	if _, err := l2.Append(KindIngest, []byte("torn")); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := full[:commitEnd+int64(len(full)-int(commitEnd))/2]
	l2.f.Close()
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	l3, res := openT(t, path, Config{AnchorEvery: -1})
	defer l3.Close()
	if res.TruncatedBytes == 0 {
		t.Fatalf("expected torn-tail truncation, got %+v", res)
	}
	seq, _ := l3.Head()
	if seq != 8 { // 4 entries + 4 commit records
		t.Fatalf("head seq = %d, want 8", seq)
	}
	if _, err := l3.Append(KindIngest, []byte("after-recovery")); err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if _, err := VerifyFile(nil, path, nil); err != nil {
		t.Fatalf("verify after recovery append: %v", err)
	}
}

func TestProofJSONRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.bgll")
	l, _ := openT(t, path, Config{})
	defer l.Close()
	r, err := l.Append(KindCheckpoint, []byte("cp"))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(r.Proof)
	if err != nil {
		t.Fatal(err)
	}
	var p Proof
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatal(err)
	}
	if err := p.Verify(); err != nil {
		t.Fatalf("proof after JSON round trip: %v", err)
	}
	p.Leaf = p.Root // forged leaf must not verify
	if p.Leaf != p.Root {
		t.Fatal("unreachable")
	}
	if len(p.Siblings) > 0 && p.Verify() == nil {
		t.Fatal("forged proof verified")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.bgll")
	l, _ := openT(t, path, Config{})
	if _, err := l.Append(KindAlert, nil); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(KindAlert, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestLastSeqOf(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.bgll")
	l, _ := openT(t, path, Config{})
	defer l.Close()
	if _, ok := l.LastSeqOf(KindModel); ok {
		t.Fatal("empty ledger has a model entry")
	}
	l.Append(KindModel, []byte("v1"))
	l.Append(KindAlert, []byte("a"))
	r, _ := l.Append(KindModel, []byte("v2"))
	seq, ok := l.LastSeqOf(KindModel)
	if !ok || seq != r.Seq {
		t.Fatalf("LastSeqOf = %d,%v want %d,true", seq, ok, r.Seq)
	}
	_, payload, err := l.Payload(seq)
	if err != nil || string(payload) != "v2" {
		t.Fatalf("payload = %q, %v", payload, err)
	}
}
