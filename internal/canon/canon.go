// Package canon is the canonical binary encoding model artifacts are
// written in: fields in a fixed order, integers as encoding/binary
// varints, floats as their 8 IEEE-754 bytes little-endian, and byte
// strings behind a uvarint length. A value encodes to the same bytes
// in every process, whatever that process encoded before, so an
// artifact's SHA-256 names its content alone.
//
// Writers append with the Append functions. Reader decodes with a
// sticky error: after the first malformed or missing field every read
// returns zero, and Done reports that error or any trailing bytes.
// It never panics, and it bounds every length by the bytes left, so a
// corrupted count cannot make a caller allocate more than the input
// could hold.
package canon

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// AppendInt appends v as a varint.
func AppendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendUint appends v as a uvarint.
func AppendUint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendFloat appends f's IEEE-754 bits, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBytes appends p behind its uvarint length.
func AppendBytes(b, p []byte) []byte { return append(AppendUint(b, uint64(len(p))), p...) }

// AppendString appends s behind its uvarint length.
func AppendString(b []byte, s string) []byte { return append(AppendUint(b, uint64(len(s))), s...) }

// errShort is the sticky error of a field that runs past the input or
// a varint that overflows 64 bits.
var errShort = errors.New("canon: truncated or malformed field")

// Reader decodes fields in the order they were appended.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err reports the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is already recorded: a caller's
// own validation stops the decode the way a malformed field does.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done reports the first decoding error, or an error when bytes remain
// past the last field read.
func (r *Reader) Done() error {
	if r.err == nil && len(r.b) > 0 {
		r.err = fmt.Errorf("canon: %d bytes past the last field", len(r.b))
	}
	return r.err
}

// Int reads a varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail(errShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Uint reads a uvarint.
func (r *Reader) Uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail(errShort)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Float reads 8 little-endian IEEE-754 bytes.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.Fail(errShort)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Count reads a uvarint element count and fails unless the bytes left
// could hold that many elements of at least minSize bytes each.
func (r *Reader) Count(minSize int) int {
	n := r.Uint()
	if r.err == nil && n > uint64(len(r.b)/max(minSize, 1)) {
		r.Fail(fmt.Errorf("canon: count %d exceeds the %d bytes left", n, len(r.b)))
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte string into a fresh slice.
func (r *Reader) Bytes() []byte {
	n := r.Count(1)
	if r.err != nil {
		return nil
	}
	p := append([]byte(nil), r.b[:n]...)
	r.b = r.b[n:]
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	if r.err != nil {
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// Version reads a format version and fails unless it is want; what
// names the encoding in the error.
func (r *Reader) Version(what string, want uint64) {
	if v := r.Uint(); r.err == nil && v != want {
		r.Fail(fmt.Errorf("canon: %s format version %d, this build reads %d", what, v, want))
	}
}
