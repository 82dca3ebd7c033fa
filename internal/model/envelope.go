// Package model persists trained predictors as versioned,
// self-describing, integrity-checked artifacts, so a daemon can load a
// model in milliseconds instead of re-mining it, ship it between
// machines, and verify on every load that the bytes are exactly the
// bytes that were saved.
//
// Two layers:
//
//   - The envelope: a generic binary container — magic, format
//     version, payload length, SHA-256 of the payload, then a gob
//     payload — written by ledger.WriteFileAtomic through the one
//     filesystem seam, ledger.FS (temp file, fsync, rename, directory
//     fsync). The checkpoints internal/lifecycle appends to the audit
//     ledger reuse it under their own magic.
//   - The Artifact: the model payload itself — one section per base
//     predictor (its predictor.Base State payload) in arbitration
//     order, the meta policy, and training provenance. A version-1
//     file's classic-pair tables convert to sections on load.
package model

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
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
//	[48:]   payload (gob stream)
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

// encodeEnvelope frames a payload under a magic and version.
func encodeEnvelope(magic string, version uint32, payload []byte) ([]byte, error) {
	if len(magic) != 4 {
		return nil, fmt.Errorf("model: magic must be 4 bytes, got %q", magic)
	}
	buf := make([]byte, headerLen+len(payload))
	copy(buf[0:4], magic)
	binary.BigEndian.PutUint32(buf[4:8], version)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:48], sum[:])
	copy(buf[headerLen:], payload)
	return buf, nil
}

// decodeEnvelope validates a framed buffer and returns its payload.
// Every failure mode — wrong magic, future version, truncation,
// trailing garbage, hash mismatch — is a distinct error; none panics.
func decodeEnvelope(data []byte, magic string, maxVersion uint32) (version uint32, payload []byte, err error) {
	if len(data) < headerLen {
		return 0, nil, fmt.Errorf("model: truncated header: %d bytes, need %d", len(data), headerLen)
	}
	if got := string(data[0:4]); got != magic {
		return 0, nil, fmt.Errorf("model: bad magic %q, want %q", got, magic)
	}
	version = binary.BigEndian.Uint32(data[4:8])
	if version == 0 || version > maxVersion {
		return 0, nil, fmt.Errorf("model: unsupported %s format version %d (this build reads 1..%d)", magic, version, maxVersion)
	}
	n := binary.BigEndian.Uint64(data[8:16])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("model: declared payload of %d bytes exceeds the %d limit", n, int64(maxPayload))
	}
	if uint64(len(data)-headerLen) != n {
		return 0, nil, fmt.Errorf("model: payload is %d bytes, header declares %d", len(data)-headerLen, n)
	}
	payload = data[headerLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[16:48]) {
		return 0, nil, fmt.Errorf("model: SHA-256 mismatch: artifact is corrupted")
	}
	return version, payload, nil
}

// SaveEnvelopeFS gob-encodes v and writes it crash-safely under the
// given magic and version through ledger.WriteFileAtomic: temp file,
// fsync, rename, directory fsync, so a crash at any point leaves
// either the old file or the new one — never a torn mix.
func SaveEnvelopeFS(fsys ledger.FS, path, magic string, version uint32, v any) (Info, error) {
	framed, info, err := MarshalEnvelope(magic, version, v)
	if err != nil {
		return Info{}, err
	}
	if err := ledger.WriteFileAtomic(fsys, path, framed, true); err != nil {
		return Info{}, err
	}
	info.Path = path
	return info, nil
}

// MarshalEnvelope gob-encodes v and frames it under the given magic
// and version, returning the envelope bytes without touching a
// filesystem — for callers that persist envelopes through another
// durability path (the audit ledger's group commit).
func MarshalEnvelope(magic string, version uint32, v any) ([]byte, Info, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, Info{}, fmt.Errorf("model: encode %s: %w", magic, err)
	}
	framed, err := encodeEnvelope(magic, version, payload.Bytes())
	if err != nil {
		return nil, Info{}, err
	}
	sum := sha256.Sum256(payload.Bytes())
	return framed, Info{Version: version, SHA256: hex.EncodeToString(sum[:]), Size: int64(len(framed))}, nil
}

// UnmarshalEnvelope verifies in-memory envelope bytes under the given
// magic (accepting versions 1..maxVersion) and gob-decodes the payload
// into v — the inverse of MarshalEnvelope.
func UnmarshalEnvelope(data []byte, magic string, maxVersion uint32, v any) (Info, error) {
	version, payload, err := decodeEnvelope(data, magic, maxVersion)
	if err != nil {
		return Info{}, err
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return Info{}, fmt.Errorf("model: decode %s payload: %w", magic, err)
	}
	sum := sha256.Sum256(payload)
	return Info{Version: version, SHA256: hex.EncodeToString(sum[:]), Size: int64(len(data))}, nil
}

// VerifyEnvelope checks a file's framing and integrity hash without
// decoding the payload — a cheap preflight for operators ("is this
// artifact intact?") and for startup paths that want to fail early.
func VerifyEnvelope(path, magic string, maxVersion uint32) (Info, error) {
	data, err := ledger.OS.ReadFile(path)
	if err != nil {
		return Info{}, err
	}
	version, payload, err := decodeEnvelope(data, magic, maxVersion)
	if err != nil {
		return Info{}, err
	}
	sum := sha256.Sum256(payload)
	return Info{Path: path, Version: version, SHA256: hex.EncodeToString(sum[:]), Size: int64(len(data))}, nil
}
