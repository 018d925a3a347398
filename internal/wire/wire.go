// Package wire implements the binary serialization of reference feature
// records used for storage and transport in the distributed system. The
// paper serializes feature matrices with Google protobuf before storing
// them in Redis; this package is the stdlib-only substitute: a compact
// varint-framed encoding with the same role (schema'd, versioned,
// byte-exact round-trips, usable both as Redis values and on the wire).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"texid/internal/binq"
	"texid/internal/blas"
	"texid/internal/gpusim"
	"texid/internal/half"
	"texid/internal/limits"
	"texid/internal/sift"
)

// magic and version guard decoding of foreign bytes. Version 1 is the
// original record; version 2 appends the optional binary prefilter code
// panel after the keypoints. Encode emits version 1 whenever no codes are
// present, so pre-pruning byte streams (and their goldens) are unchanged,
// and Decode accepts both.
const (
	magic    = 0x54584946 // "TXIF"
	version  = 1
	version2 = 2
)

// ErrCorrupt is returned when bytes do not parse as a feature record.
var ErrCorrupt = errors.New("wire: corrupt feature record")

// FeatureRecord is the serialized form of one reference texture's features.
type FeatureRecord struct {
	ID        int64
	Precision gpusim.Precision
	Scale     float32
	// Features is d×m (one descriptor per column).
	Features *blas.Matrix
	// Keypoints is optional geometry for geometric verification.
	Keypoints []sift.Keypoint
	// Codes is the optional binary prefilter panel (one packed 128-bit
	// code per descriptor column, len 0 or m). Persisting the enrolled
	// codes keeps snapshot round-trips bit-exact instead of re-encoding
	// from quantized features.
	Codes []binq.Code
}

// appendUvarint appends v as an unsigned varint.
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// Encode serializes the record. FP16 precision stores descriptors as
// binary16 (after applying Scale), halving the stored size exactly as the
// production system does.
func Encode(r *FeatureRecord) []byte {
	d, m := 0, 0
	if r.Features != nil {
		d, m = r.Features.Rows, r.Features.Cols
	}
	est := 64 + d*m*4 + len(r.Keypoints)*40 + len(r.Codes)*binq.Bytes
	b := make([]byte, 0, est)
	b = binary.LittleEndian.AppendUint32(b, magic)
	if len(r.Codes) > 0 {
		b = append(b, version2)
	} else {
		b = append(b, version)
	}
	b = appendUvarint(b, uint64(r.ID))
	b = append(b, byte(r.Precision))
	b = binary.LittleEndian.AppendUint32(b, math.Float32bits(r.Scale))
	b = appendUvarint(b, uint64(d))
	b = appendUvarint(b, uint64(m))
	if r.Precision == gpusim.FP16 {
		scale := r.Scale
		if scale == 0 {
			scale = 1
		}
		for j := 0; j < m; j++ {
			for _, v := range r.Features.Col(j) {
				b = binary.LittleEndian.AppendUint16(b, half.FromFloat32(v*scale).Bits())
			}
		}
	} else {
		for j := 0; j < m; j++ {
			for _, v := range r.Features.Col(j) {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
			}
		}
	}
	b = appendUvarint(b, uint64(len(r.Keypoints)))
	for _, kp := range r.Keypoints {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(kp.X)))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(kp.Y)))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(kp.Sigma)))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(kp.Angle)))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(kp.Response)))
	}
	if len(r.Codes) > 0 {
		b = appendUvarint(b, uint64(len(r.Codes)))
		for _, c := range r.Codes {
			for _, w := range c {
				b = binary.LittleEndian.AppendUint64(b, w)
			}
		}
	}
	return b
}

type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) uvarint() uint64 {
	if r.err != nil || r.pos >= len(r.b) {
		r.err = ErrCorrupt
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || r.pos+2 > len(r.b) {
		r.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.pos:])
	r.pos += 2
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.pos+4 > len(r.b) {
		r.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.pos+8 > len(r.b) {
		r.err = ErrCorrupt
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.err = ErrCorrupt
		return 0
	}
	v := r.b[r.pos]
	r.pos++
	return v
}

func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }

// Decode parses a record encoded by Encode. FP16 records come back widened
// to float32 with the storage scale divided back out, so Features is always
// in original descriptor units (the FP16 quantization itself is of course
// not undone). The input is foreign bytes (kvstore values, HTTP bodies,
// snapshot records): every dimension and count is hostile until checked.
func Decode(b []byte) (*FeatureRecord, error) {
	r := &reader{b: b}
	if r.u32() != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	v := r.byte()
	if v != version && v != version2 {
		return nil, fmt.Errorf("wire: unsupported version %d", v)
	}
	rec := &FeatureRecord{}
	rec.ID = int64(r.uvarint())
	rec.Precision = gpusim.Precision(r.byte())
	if rec.Precision != gpusim.FP32 && rec.Precision != gpusim.FP16 {
		return nil, fmt.Errorf("%w: bad precision %d", ErrCorrupt, rec.Precision)
	}
	rec.Scale = r.f32()
	d := int(r.uvarint())
	m := int(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	const maxDim = 1 << 24
	if limits.Check("descriptor dim", d, maxDim) != nil ||
		limits.Check("descriptor count", m, maxDim) != nil ||
		limits.Check("feature elements", d*m, maxDim) != nil {
		return nil, fmt.Errorf("%w: unreasonable dimensions %dx%d", ErrCorrupt, d, m)
	}
	// Before allocating from an attacker-controlled header, confirm the
	// input actually carries that much payload (a 20-byte message must not
	// allocate a 64 MB matrix).
	elem := 4
	if rec.Precision == gpusim.FP16 {
		elem = 2
	}
	if need := d * m * elem; need > len(b)-r.pos {
		return nil, fmt.Errorf("%w: truncated feature payload", ErrCorrupt)
	}
	rec.Features = blas.NewMatrix(d, m)
	if rec.Precision == gpusim.FP16 {
		inv := float32(1)
		if rec.Scale != 0 && rec.Scale != 1 {
			inv = 1 / rec.Scale
		}
		for j := 0; j < m; j++ {
			col := rec.Features.Col(j)
			for i := range col {
				col[i] = half.FromBits(r.u16()).Float32() * inv
			}
		}
	} else {
		for j := 0; j < m; j++ {
			col := rec.Features.Col(j)
			for i := range col {
				col[i] = r.f32()
			}
		}
	}
	nk := int(r.uvarint())
	if r.err != nil {
		return nil, r.err
	}
	if err := limits.Check("keypoint count", nk, maxDim); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if need := nk * 20; need > len(b)-r.pos {
		return nil, fmt.Errorf("%w: truncated keypoint payload", ErrCorrupt)
	}
	rec.Keypoints = make([]sift.Keypoint, nk)
	for i := range rec.Keypoints {
		rec.Keypoints[i] = sift.Keypoint{
			X:        float64(r.f32()),
			Y:        float64(r.f32()),
			Sigma:    float64(r.f32()),
			Angle:    float64(r.f32()),
			Response: float64(r.f32()),
		}
	}
	if v >= version2 {
		nc := int(r.uvarint())
		if r.err != nil {
			return nil, r.err
		}
		// Codes are per-descriptor: the only legal counts are 0 and m.
		if nc != 0 && nc != m {
			return nil, fmt.Errorf("%w: %d codes for %d descriptors", ErrCorrupt, nc, m)
		}
		if need := nc * binq.Bytes; need > len(b)-r.pos {
			return nil, fmt.Errorf("%w: truncated code payload", ErrCorrupt)
		}
		if nc > 0 {
			rec.Codes = make([]binq.Code, nc)
			for i := range rec.Codes {
				for w := range rec.Codes[i] {
					rec.Codes[i][w] = r.u64()
				}
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(b) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(b)-r.pos)
	}
	return rec, nil
}
