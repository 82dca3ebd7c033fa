// Package ledger is a hash-chained, append-only, crash-consistent
// audit ledger for the serving stack: accepted ingest batches, emitted
// alerts, and model/checkpoint provenance land here as entries whose
// order and content are tamper-evident back to the file's genesis.
//
// Two integrity mechanisms compose:
//
//   - A hash chain: every record (entries and commit records alike)
//     carries SHA-256(previous chain hash || record body), so the
//     chain hash after the newest record — the ledger root — names the
//     exact byte sequence of everything before it.
//   - Merkle-batched group commit: concurrent Append calls coalesce
//     into one batch, written with a single file write and a single
//     fsync; the batch is sealed by a commit record carrying the
//     Merkle root over the batch's entries, and every caller gets back
//     an inclusion proof against that root. One fsync amortizes over
//     the whole batch — the Checkpointer's per-write fsync collapses
//     into this path.
//
// Crash consistency is verify-or-detect: an entry is acknowledged only
// after its commit record is fsynced, so a crash (ENOSPC, short
// write, failed fsync, kill mid-commit) can only damage the
// uncommitted tail, which Open truncates. Damage that is not a torn
// tail — a mid-file flip, a rewritten history, truncation below the
// anchored offset — is detected and refused, never repaired into a
// chain that verifies while omitting an acknowledged entry.
//
// FS is the filesystem seam of all durable state, not only the
// ledger's: model artifacts and the ledger's anchor sidecar replace
// files through WriteFileAtomic over it.
package ledger

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bglpred/internal/edge"
)

// File format identity.
const (
	// Magic opens every ledger file.
	Magic = "BGLL"
	// formatVersion is the on-disk format this build writes and reads.
	formatVersion = 1
	// headerLen is magic (4) + big-endian uint32 version.
	headerLen = 8
)

// maxPayload bounds one entry's payload, mirroring the model
// envelope's guard: a corrupted length field must not OOM the reader.
const maxPayload = 1 << 30

// Record framing: u32 body length | body | 32-byte chain hash, where
// body = kind (1) | seq (8, BE) | at (8, BE unix-nanos) | payload.
const (
	recordPrefix = 4
	bodyPrefix   = 1 + 8 + 8
	chainLen     = sha256.Size
)

// Kind classifies one ledger entry.
type Kind uint8

const (
	// KindIngest records the digest of one accepted ingest batch.
	KindIngest Kind = 1
	// KindAlert records one emitted alert.
	KindAlert Kind = 2
	// KindCheckpoint records a shard-state checkpoint (the payload is
	// the full checkpoint envelope).
	KindCheckpoint Kind = 3
	// KindModel records a persisted model artifact's provenance
	// (version, SHA-256, path).
	KindModel Kind = 4
	// kindCommit seals a group-commit batch; its payload holds the
	// batch size and the Merkle root over the batch's entries.
	kindCommit Kind = 0x10
)

var kindNames = map[Kind]string{
	KindIngest:     "ingest-batch",
	KindAlert:      "alert",
	KindCheckpoint: "checkpoint",
	KindModel:      "model",
	kindCommit:     "commit",
}

// String returns the kind's wire name (as served on /v1/proofs).
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Sentinel errors. All failures wrap one of these; compare with
// errors.Is.
var (
	// ErrCorrupt: the chain is damaged somewhere other than the
	// uncommitted tail — detected, never repaired.
	ErrCorrupt = errors.New("ledger: chain corrupted")
	// ErrTampered: the file contradicts its anchor (acknowledged,
	// durable records are missing or rewritten).
	ErrTampered = errors.New("ledger: anchored history missing or rewritten")
	// ErrClosed: the ledger has been closed.
	ErrClosed = errors.New("ledger: closed")
	// ErrFailed: a rollback after a failed commit could not restore the
	// durable prefix; the ledger refuses further appends.
	ErrFailed = errors.New("ledger: failed, appends disabled")
	// ErrNoEntry: no entry exists at the requested sequence number.
	ErrNoEntry = errors.New("ledger: no such entry")
)

// Config parameterizes Open. The zero value is production-ready.
type Config struct {
	// FS is the filesystem the ledger reads and appends through (nil =
	// OS); fault-injection tests interpose faultinject.Fs here.
	FS FS
	// AnchorEvery writes the anchor sidecar every N group commits
	// (default 8; negative disables periodic anchoring — Close still
	// anchors). The anchor bounds how much history a repair-truncate
	// may drop: Open refuses to truncate below the anchored offset.
	AnchorEvery int
	// Logf, when set, receives operational log lines (recovery
	// truncations, rollback outcomes).
	Logf func(format string, args ...any)
}

// OpenResult reports what Open found and did.
type OpenResult struct {
	// Created is true when the file did not exist.
	Created bool
	// Entries and Commits count the surviving records.
	Entries uint64
	Commits uint64
	// TruncatedBytes and TruncatedEntries describe the torn tail that
	// recovery dropped (always unacknowledged records).
	TruncatedBytes   int64
	TruncatedEntries int
}

// entryMeta is the in-memory index of one durable record: enough to
// rebuild proofs and re-read payloads without holding payload bytes.
type entryMeta struct {
	kind  Kind
	at    int64
	off   int64 // record start offset in the file
	n     int32 // total record length (prefix + body + chain)
	leaf  [32]byte
	batch int32
}

// batchMeta is one sealed group commit.
type batchMeta struct {
	first  uint64 // seq of the batch's first entry
	count  int    // entries in the batch (the commit record excluded)
	commit uint64 // seq of the commit record
	root   [32]byte
	end    int64    // file offset just past the commit record
	chain  [32]byte // chain hash after the commit record
}

// pending is one Append waiting for its group commit.
type pending struct {
	kind    Kind
	payload []byte
	at      time.Time
	fin     bool
	receipt Receipt
	err     error
}

// Receipt is what Append returns once the entry is durable: its
// sequence number and the inclusion proof against the batch's root.
type Receipt struct {
	Seq   uint64
	Proof Proof
}

// Ledger is the append-only audit log. All methods are safe for
// concurrent use; Append blocks until the entry's group commit is
// fsynced (or fails).
type Ledger struct {
	cfg  Config
	fs   FS
	path string

	mu         sync.Mutex
	cond       *sync.Cond
	queue      []*pending
	committing bool
	closed     bool
	failed     error

	f File // append handle; owned by the committer while committing

	// Durable state, published under mu after each commit.
	nextSeq uint64
	chain   [32]byte
	size    int64
	entries []entryMeta
	batches []batchMeta

	commitsSinceAnchor int
	anchorSeq          uint64

	nEntries   atomic.Int64
	nCommits   atomic.Int64
	nRollbacks atomic.Int64
}

// genesis returns the chain hash before the first record: the hash of
// the file header, so even the format identity is under the chain.
func genesis() [32]byte {
	return sha256.Sum256(header())
}

func header() []byte {
	h := make([]byte, headerLen)
	copy(h, Magic)
	binary.BigEndian.PutUint32(h[4:8], formatVersion)
	return h
}

func chainHash(prev [32]byte, body []byte) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	h.Write(body)
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func encodeBody(k Kind, seq uint64, at int64, payload []byte) []byte {
	body := make([]byte, bodyPrefix+len(payload))
	body[0] = byte(k)
	binary.BigEndian.PutUint64(body[1:9], seq)
	binary.BigEndian.PutUint64(body[9:17], uint64(at))
	copy(body[bodyPrefix:], payload)
	return body
}

// Open opens (creating if absent) the ledger at path, replaying and
// verifying the chain. A torn, uncommitted tail is truncated; any
// other damage returns an error wrapping ErrCorrupt or ErrTampered.
func Open(path string, cfg Config) (*Ledger, OpenResult, error) {
	if cfg.FS == nil {
		cfg.FS = OS
	}
	if cfg.AnchorEvery == 0 {
		cfg.AnchorEvery = 8
	}
	l := &Ledger{cfg: cfg, fs: cfg.FS, path: path, chain: genesis(), size: headerLen}
	l.cond = sync.NewCond(&l.mu)

	var res OpenResult
	data, err := l.fs.ReadFile(path)
	switch {
	case err != nil && isNotExist(err):
		res.Created = true
	case err != nil:
		return nil, res, fmt.Errorf("ledger: open %s: %w", path, err)
	default:
		sc, err := scan(data)
		if err != nil {
			return nil, res, fmt.Errorf("ledger: open %s: %w", path, err)
		}
		if err := l.checkAnchor(sc); err != nil {
			return nil, res, err
		}
		if sc.keep < int64(len(data)) {
			// Torn tail: only unacknowledged records (no commit record
			// sealed them), safe to drop by the group-commit contract.
			if err := l.fs.Truncate(path, sc.keep); err != nil {
				return nil, res, fmt.Errorf("ledger: truncate torn tail of %s: %w", path, err)
			}
			res.TruncatedBytes = int64(len(data)) - sc.keep
			res.TruncatedEntries = sc.dropped
			l.logf("recovered %s: dropped torn tail (%d bytes, %d uncommitted records)",
				path, res.TruncatedBytes, res.TruncatedEntries)
		}
		l.install(sc)
		res.Entries = uint64(len(l.entries)) - uint64(len(l.batches))
		res.Commits = uint64(len(l.batches))
	}

	l.f, err = l.fs.OpenAppend(path)
	if err != nil {
		return nil, res, fmt.Errorf("ledger: open %s for append: %w", path, err)
	}
	if res.Created {
		if _, err := l.f.Write(header()); err != nil {
			l.f.Close()
			return nil, res, fmt.Errorf("ledger: write %s header: %w", path, err)
		}
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return nil, res, fmt.Errorf("ledger: sync %s header: %w", path, err)
		}
		// Without the directory entry, a crash could take the file and
		// every entry acknowledged in it.
		if err := l.fs.SyncDir(dirOf(path)); err != nil {
			l.f.Close()
			return nil, res, fmt.Errorf("ledger: sync directory of %s: %w", path, err)
		}
	}
	return l, res, nil
}

// install publishes a scan's surviving records as the ledger's state.
func (l *Ledger) install(sc *scanState) {
	l.entries = sc.entries
	l.batches = sc.batches
	l.nextSeq = uint64(len(sc.entries))
	l.size = sc.keep
	if len(sc.batches) > 0 {
		l.chain = sc.batches[len(sc.batches)-1].chain
	}
	l.nEntries.Store(int64(len(sc.entries) - len(sc.batches)))
	l.nCommits.Store(int64(len(sc.batches)))
}

// checkAnchor refuses recovery that would drop anchored (acknowledged
// and durable) history, and detects a history rewritten under a valid
// anchor.
func (l *Ledger) checkAnchor(sc *scanState) error {
	a, ok := l.readAnchor()
	if !ok {
		return nil
	}
	if a.Offset > sc.keep {
		return fmt.Errorf("%w: anchor covers offset %d, only %d verifies", ErrTampered, a.Offset, sc.keep)
	}
	for _, b := range sc.batches {
		if b.end == a.Offset {
			if hex.EncodeToString(b.chain[:]) != a.Chain {
				return fmt.Errorf("%w: chain at anchored offset %d diverges from anchor", ErrTampered, a.Offset)
			}
			return nil
		}
		if b.end > a.Offset {
			break
		}
	}
	if a.Offset != headerLen {
		return fmt.Errorf("%w: anchored offset %d is not a commit boundary", ErrTampered, a.Offset)
	}
	return nil
}

// Append records one entry, blocking until its group commit is
// durable. Concurrent appenders share one file write and one fsync;
// the receipt carries the entry's inclusion proof against the batch's
// Merkle root and the chain root that seals it.
func (l *Ledger) Append(kind Kind, payload []byte) (Receipt, error) {
	if len(payload) > maxPayload {
		return Receipt{}, fmt.Errorf("ledger: payload of %d bytes exceeds the %d limit", len(payload), maxPayload)
	}
	p := &pending{kind: kind, payload: payload, at: time.Now()}

	l.mu.Lock()
	if err := l.appendableLocked(); err != nil {
		l.mu.Unlock()
		return Receipt{}, err
	}
	l.queue = append(l.queue, p)
	for {
		if p.fin {
			l.mu.Unlock()
			return p.receipt, p.err
		}
		if !l.committing {
			break
		}
		l.cond.Wait()
	}
	// This appender becomes the batch leader: it takes everything
	// queued (its own entry included) through one commit.
	l.committing = true
	batch := l.queue
	l.queue = nil
	failed := l.failed
	l.mu.Unlock()

	var results []Receipt
	var err error
	if failed != nil {
		// Poisoned while these entries waited behind the batch whose
		// rollback failed: committing them would bury its torn bytes
		// mid-chain, under records that were then acknowledged.
		err = fmt.Errorf("%w: %w", ErrFailed, failed)
	} else {
		results, err = l.commitBatch(batch)
	}

	l.mu.Lock()
	l.committing = false
	for i, q := range batch {
		q.fin = true
		q.err = err
		if err == nil {
			q.receipt = results[i]
		}
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return p.receipt, p.err
}

func (l *Ledger) appendableLocked() error {
	if l.closed {
		return ErrClosed
	}
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrFailed, l.failed)
	}
	return nil
}

// commitBatch writes the batch's entries plus the sealing commit
// record in one file write, fsyncs once, and publishes the new durable
// state. On failure it rolls the file back to the last durable commit
// so the chain on disk never holds an unsealed suffix behind a sealed
// one. Runs exclusively (the committing flag); takes mu only to
// publish.
func (l *Ledger) commitBatch(batch []*pending) ([]Receipt, error) {
	seq := l.nextSeq
	chain := l.chain
	off := l.size

	var buf bytes.Buffer
	leaves := make([][32]byte, len(batch))
	metas := make([]entryMeta, 0, len(batch)+1)
	batchIdx := int32(len(l.batches))
	first := seq
	for i, p := range batch {
		body := encodeBody(p.kind, seq, p.at.UnixNano(), p.payload)
		leaves[i] = leafHash(body)
		chain = chainHash(chain, body)
		metas = append(metas, entryMeta{
			kind: p.kind, at: p.at.UnixNano(),
			off: off + int64(buf.Len()), n: int32(recordPrefix + len(body) + chainLen),
			leaf: leaves[i], batch: batchIdx,
		})
		writeRecord(&buf, body, chain)
		seq++
	}
	root := merkleRoot(leaves)
	commitPayload := make([]byte, 4+chainLen)
	binary.BigEndian.PutUint32(commitPayload[:4], uint32(len(batch)))
	copy(commitPayload[4:], root[:])
	commitAt := time.Now()
	commitBody := encodeBody(kindCommit, seq, commitAt.UnixNano(), commitPayload)
	commitLeaf := leafHash(commitBody)
	chain = chainHash(chain, commitBody)
	metas = append(metas, entryMeta{
		kind: kindCommit, at: commitAt.UnixNano(),
		off: off + int64(buf.Len()), n: int32(recordPrefix + len(commitBody) + chainLen),
		leaf: commitLeaf, batch: batchIdx,
	})
	writeRecord(&buf, commitBody, chain)
	commitSeq := seq

	if _, err := l.f.Write(buf.Bytes()); err != nil {
		l.rollback(off, fmt.Errorf("ledger: batch write: %w", err))
		return nil, fmt.Errorf("ledger: batch write: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		l.rollback(off, fmt.Errorf("ledger: commit fsync: %w", err))
		return nil, fmt.Errorf("ledger: commit fsync: %w", err)
	}

	b := batchMeta{first: first, count: len(batch), commit: commitSeq, root: root, end: off + int64(buf.Len()), chain: chain}
	chainHex := hex.EncodeToString(chain[:])
	receipts := make([]Receipt, len(batch))
	for i, p := range batch {
		receipts[i] = Receipt{
			Seq: first + uint64(i),
			Proof: Proof{
				Seq:       first + uint64(i),
				Kind:      p.kind.String(),
				At:        time.Unix(0, metas[i].at).UTC(),
				Leaf:      hex.EncodeToString(leaves[i][:]),
				Index:     i,
				Siblings:  merkleProof(leaves, i),
				Root:      hex.EncodeToString(root[:]),
				CommitSeq: commitSeq,
				ChainRoot: chainHex,
			},
		}
	}

	l.mu.Lock()
	l.entries = append(l.entries, metas...)
	l.batches = append(l.batches, b)
	l.nextSeq = commitSeq + 1
	l.chain = chain
	l.size = b.end
	l.commitsSinceAnchor++
	anchor := l.cfg.AnchorEvery > 0 && l.commitsSinceAnchor >= l.cfg.AnchorEvery
	if anchor {
		l.commitsSinceAnchor = 0
	}
	l.mu.Unlock()
	l.nEntries.Add(int64(len(batch)))
	l.nCommits.Add(1)
	if anchor {
		l.writeAnchor(false)
	}
	return receipts, nil
}

// rollback restores the file to the last durable commit boundary after
// a failed batch write or fsync. A rollback that itself fails poisons
// the ledger: the on-disk tail is unknowable, and appending after it
// would bury garbage mid-chain.
func (l *Ledger) rollback(size int64, cause error) {
	l.nRollbacks.Add(1)
	if err := l.fs.Truncate(l.path, size); err != nil {
		l.mu.Lock()
		l.failed = fmt.Errorf("rollback truncate after %w: %w", cause, err)
		l.mu.Unlock()
		l.logf("ledger poisoned: %v (rollback truncate failed: %v)", cause, err)
		return
	}
	l.logf("rolled back failed commit (%v); chain intact at offset %d", cause, size)
}

// Head reports the ledger's current identity: the next sequence number
// and the chain root (hex) after the newest committed record.
func (l *Ledger) Head() (seq uint64, root string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq, hex.EncodeToString(l.chain[:])
}

// Entries, Commits and Rollbacks are lifetime counters for /metrics.
func (l *Ledger) Entries() int64   { return l.nEntries.Load() }
func (l *Ledger) Commits() int64   { return l.nCommits.Load() }
func (l *Ledger) Rollbacks() int64 { return l.nRollbacks.Load() }

// AnchorSeq reports the record sequence covered by the newest anchor
// write (0 when never anchored).
func (l *Ledger) AnchorSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.anchorSeq
}

// EntryView is the indexed metadata of one committed entry.
type EntryView struct {
	Seq  uint64
	Kind Kind
	At   time.Time
	Leaf string
}

// Entry returns the metadata of one committed entry (commit records
// included, with Kind "commit").
func (l *Ledger) Entry(seq uint64) (EntryView, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= uint64(len(l.entries)) {
		return EntryView{}, fmt.Errorf("%w: seq %d (head %d)", ErrNoEntry, seq, len(l.entries))
	}
	e := l.entries[seq]
	return EntryView{Seq: seq, Kind: e.kind, At: time.Unix(0, e.at).UTC(), Leaf: hex.EncodeToString(e.leaf[:])}, nil
}

// LastSeqOf returns the newest committed entry of the given kind.
func (l *Ledger) LastSeqOf(kind Kind) (uint64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.entries) - 1; i >= 0; i-- {
		if l.entries[i].kind == kind {
			return uint64(i), true
		}
	}
	return 0, false
}

// Payload re-reads one committed entry's payload from the file,
// verifying it against the indexed leaf hash before returning it.
func (l *Ledger) Payload(seq uint64) (EntryView, []byte, error) {
	l.mu.Lock()
	if seq >= uint64(len(l.entries)) {
		l.mu.Unlock()
		return EntryView{}, nil, fmt.Errorf("%w: seq %d (head %d)", ErrNoEntry, seq, len(l.entries))
	}
	e := l.entries[seq]
	l.mu.Unlock()

	data, err := l.fs.ReadFile(l.path)
	if err != nil {
		return EntryView{}, nil, fmt.Errorf("ledger: read %s: %w", l.path, err)
	}
	if int64(len(data)) < e.off+int64(e.n) {
		return EntryView{}, nil, fmt.Errorf("%w: file shorter than indexed entry %d", ErrCorrupt, seq)
	}
	body := data[e.off+recordPrefix : e.off+int64(e.n)-chainLen]
	if leafHash(body) != e.leaf {
		return EntryView{}, nil, fmt.Errorf("%w: entry %d bytes do not match committed leaf hash", ErrCorrupt, seq)
	}
	view := EntryView{Seq: seq, Kind: e.kind, At: time.Unix(0, e.at).UTC(), Leaf: hex.EncodeToString(e.leaf[:])}
	return view, append([]byte(nil), body[bodyPrefix:]...), nil
}

// ProofOf rebuilds the inclusion proof for one committed entry against
// its batch's Merkle root and the sealing chain root.
func (l *Ledger) ProofOf(seq uint64) (Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= uint64(len(l.entries)) {
		return Proof{}, fmt.Errorf("%w: seq %d (head %d)", ErrNoEntry, seq, len(l.entries))
	}
	e := l.entries[seq]
	if e.kind == kindCommit {
		return Proof{}, fmt.Errorf("%w: seq %d is a commit record, not an entry", ErrNoEntry, seq)
	}
	b := l.batches[e.batch]
	leaves := make([][32]byte, b.count)
	for i := 0; i < b.count; i++ {
		leaves[i] = l.entries[b.first+uint64(i)].leaf
	}
	idx := int(seq - b.first)
	return Proof{
		Seq:       seq,
		Kind:      e.kind.String(),
		At:        time.Unix(0, e.at).UTC(),
		Leaf:      hex.EncodeToString(e.leaf[:]),
		Index:     idx,
		Siblings:  merkleProof(leaves, idx),
		Root:      hex.EncodeToString(b.root[:]),
		CommitSeq: b.commit,
		ChainRoot: hex.EncodeToString(b.chain[:]),
	}, nil
}

// Close flushes pending commits, writes a final fsynced anchor, and
// closes the file. Appends after Close fail with ErrClosed.
func (l *Ledger) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	for l.committing || len(l.queue) > 0 {
		l.cond.Wait()
	}
	l.mu.Unlock()

	var errs []error
	if l.cfg.AnchorEvery >= 0 {
		if err := l.writeAnchor(true); err != nil {
			errs = append(errs, err)
		}
	}
	if err := l.f.Close(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// anchor is the sidecar that pins the durable prefix: recovery refuses
// to truncate below Offset, and the chain at Offset must match Chain.
type anchor struct {
	Seq    uint64 `json:"seq"`
	Offset int64  `json:"offset"`
	Chain  string `json:"chain"`
}

func (l *Ledger) anchorPath() string { return l.path + ".anchor" }

// writeAnchor persists the current durable boundary through
// WriteFileAtomic. Periodic anchors pass durable=false and skip both
// fsyncs: the ledger data they point at is already durable, and an
// anchor lost to a crash only weakens the truncation bound. Close seals
// with durable=true.
func (l *Ledger) writeAnchor(durable bool) error {
	l.mu.Lock()
	a := anchor{Seq: l.nextSeq, Offset: l.size, Chain: hex.EncodeToString(l.chain[:])}
	l.mu.Unlock()
	if a.Offset <= headerLen {
		return nil // nothing committed yet
	}
	data, err := json.Marshal(a)
	if err != nil {
		return err
	}
	if err := WriteFileAtomic(l.fs, l.anchorPath(), data, durable); err != nil {
		return err
	}
	l.mu.Lock()
	l.anchorSeq = a.Seq
	l.mu.Unlock()
	return nil
}

// readAnchor loads the sidecar; a missing or unparseable anchor (a
// crash mid-anchor-write) is ignored, not fatal — it only weakens the
// truncation bound back to "last valid commit".
func (l *Ledger) readAnchor() (anchor, bool) {
	data, err := l.fs.ReadFile(l.anchorPath())
	if err != nil {
		return anchor{}, false
	}
	var a anchor
	if err := json.Unmarshal(data, &a); err != nil || a.Offset < headerLen || len(a.Chain) != 2*chainLen {
		return anchor{}, false
	}
	return a, true
}

func (l *Ledger) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}

func writeRecord(buf *bytes.Buffer, body []byte, chain [32]byte) {
	var pfx [recordPrefix]byte
	binary.BigEndian.PutUint32(pfx[:], uint32(len(body)))
	buf.Write(pfx[:])
	buf.Write(body)
	buf.Write(chain[:])
}

// WriteMetrics lists the ledger's own families — the bglledger_
// namespace — on m; the serve layer calls it from /metrics.
func (l *Ledger) WriteMetrics(m *edge.Metrics) {
	m.Counter("bglledger_entries_total", "Entries committed to the audit ledger.", l.Entries())
	m.Counter("bglledger_commits_total", "Group commits (one fsync each) sealing entry batches.", l.Commits())
	m.Counter("bglledger_rollbacks_total", "Failed commits rolled back to the last durable boundary.", l.Rollbacks())
	seq, _ := l.Head()
	m.Gauge("bglledger_seq", "Next ledger sequence number (committed records so far).", int64(seq))
	m.Gauge("bglledger_anchor_seq", "Sequence covered by the newest anchor write.", int64(l.AnchorSeq()))
}
