// Package model persists trained predictors as versioned,
// self-describing, integrity-checked artifacts, so a daemon can load a
// model in milliseconds instead of re-mining it, ship it between
// machines, and verify on every load that the bytes are exactly the
// bytes that were saved.
//
// Two layers:
//
//   - The envelope: a generic binary container — magic, format
//     version, payload length, SHA-256 of the payload, then the
//     payload bytes its caller encoded — written by
//     ledger.WriteFileAtomic through the one filesystem seam, ledger.FS
//     (temp file, fsync, rename, directory fsync). The checkpoints
//     internal/lifecycle appends to the audit ledger reuse it under
//     their own magic.
//   - The Artifact: the model payload itself — one section per base
//     predictor (its predictor.Base State payload) in arbitration
//     order, the meta policy, and training provenance, in the
//     canonical encoding of internal/canon (version 3). Versions 1 and
//     2 were gob; they still load, through a decoder that only decodes
//     and converts their sections to the canonical form (legacy.go).
package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"bglpred/internal/ledger"
)

// envelope layout:
//
//	[0:4]   magic (4 ASCII bytes, e.g. "BGLM")
//	[4:8]   format version, big-endian uint32
//	[8:16]  payload length, big-endian uint64
//	[16:48] SHA-256 of the payload
//	[48:]   payload
const headerLen = 48

// maxPayload bounds how much a reader will allocate on the word of an
// untrusted header (a corrupted length field must not OOM the daemon).
const maxPayload = 1 << 30

// Info identifies one stored envelope: where it lives, what format
// version it carries, and the hash that names its content. The hex
// SHA-256 is the artifact's identity — /v1/model reports it, and
// checkpoints record it to detect model/state mismatches.
type Info struct {
	Path    string
	Version uint32
	SHA256  string
	Size    int64
}

// MarshalEnvelope frames payload under the given magic and version,
// returning the envelope bytes and their Info without touching a
// filesystem: artifacts are written through ledger.WriteFileAtomic,
// checkpoints through the audit ledger's group commit.
func MarshalEnvelope(magic string, version uint32, payload []byte) ([]byte, Info, error) {
	if len(magic) != 4 {
		return nil, Info{}, fmt.Errorf("model: magic must be 4 bytes, got %q", magic)
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf[0:4], magic)
	binary.BigEndian.PutUint32(buf[4:8], version)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:48], sum[:])
	copy(buf[headerLen:], payload)
	return buf, Info{Version: version, SHA256: hex.EncodeToString(sum[:]), Size: int64(len(buf))}, nil
}

// UnmarshalEnvelope verifies in-memory envelope bytes under the given
// magic (accepting versions 1..maxVersion) and returns the payload,
// which aliases data — the inverse of MarshalEnvelope. Every failure
// mode — wrong magic, future version, truncation, trailing garbage,
// hash mismatch — is a distinct error; none panics.
func UnmarshalEnvelope(data []byte, magic string, maxVersion uint32) ([]byte, Info, error) {
	if len(data) < headerLen {
		return nil, Info{}, fmt.Errorf("model: truncated header: %d bytes, need %d", len(data), headerLen)
	}
	if got := string(data[0:4]); got != magic {
		return nil, Info{}, fmt.Errorf("model: bad magic %q, want %q", got, magic)
	}
	version := binary.BigEndian.Uint32(data[4:8])
	if version == 0 || version > maxVersion {
		return nil, Info{}, fmt.Errorf("model: unsupported %s format version %d (this build reads 1..%d)", magic, version, maxVersion)
	}
	n := binary.BigEndian.Uint64(data[8:16])
	if n > maxPayload {
		return nil, Info{}, fmt.Errorf("model: declared payload of %d bytes exceeds the %d limit", n, int64(maxPayload))
	}
	if uint64(len(data)-headerLen) != n {
		return nil, Info{}, fmt.Errorf("model: payload is %d bytes, header declares %d", len(data)-headerLen, n)
	}
	payload := data[headerLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[16:48]) {
		return nil, Info{}, fmt.Errorf("model: SHA-256 mismatch: artifact is corrupted")
	}
	return payload, Info{Version: version, SHA256: hex.EncodeToString(sum[:]), Size: int64(len(data))}, nil
}

// VerifyEnvelope checks a file's framing and integrity hash without
// decoding the payload — a cheap preflight for operators ("is this
// artifact intact?") and for startup paths that want to fail early.
func VerifyEnvelope(path, magic string, maxVersion uint32) (Info, error) {
	data, err := ledger.OS.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	_, info, err := UnmarshalEnvelope(data, magic, maxVersion)
	if err != nil {
		return Info{}, err
	}
	info.Path = path
	return info, nil
}
