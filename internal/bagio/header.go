// Package bagio implements the on-disk grammar of the ROS bag format
// version 2.0: length-prefixed records, each carrying a header made of
// name=value fields and an opaque data block. Higher layers
// (internal/rosbag) compose these records into chunked, indexed bag files.
//
// The format is reproduced from the ROS bag specification:
//
//	record  := <header_len:u32le> <header> <data_len:u32le> <data>
//	header  := field*
//	field   := <field_len:u32le> <name> '=' <value>
//
// Every record header carries an "op" field (one byte) identifying the
// record type; see the Op* constants.
package bagio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
)

// Magic is the signature line that opens every v2.0 bag file.
const Magic = "#ROSBAG V2.0\n"

// Record op codes as defined by the bag v2.0 specification.
const (
	OpMessageData byte = 0x02 // serialized message bytes
	OpBagHeader   byte = 0x03 // file-level metadata, padded record
	OpIndexData   byte = 0x04 // per-connection index for the preceding chunk
	OpChunk       byte = 0x05 // container of message/connection records
	OpChunkInfo   byte = 0x06 // chunk summary, written at end of file
	OpConnection  byte = 0x07 // connection (topic) metadata
)

// BagHeaderLen is the fixed on-disk length of the bag header record
// (header + data), so that index_pos can be patched in place after the
// rest of the file is written. The spec pads the record to 4096 bytes.
const BagHeaderLen = 4096

// Header is a set of name=value fields attached to a record. Values are
// raw bytes; integer and time fields use the little-endian encodings
// provided by the Put*/Get* helpers.
type Header map[string][]byte

// Field name constants used across record types.
const (
	FieldOp          = "op"
	FieldIndexPos    = "index_pos"
	FieldConnCount   = "conn_count"
	FieldChunkCount  = "chunk_count"
	FieldCompression = "compression"
	FieldSize        = "size"
	FieldConn        = "conn"
	FieldTopic       = "topic"
	FieldTime        = "time"
	FieldVer         = "ver"
	FieldCount       = "count"
	FieldChunkPos    = "chunk_pos"
	FieldStartTime   = "start_time"
	FieldEndTime     = "end_time"
)

// Compression identifiers stored in chunk records. The reference
// implementation supports "none", "bz2" and "lz4"; this implementation
// supports "none" and "gz" (stdlib compress/gzip standing in for bz2).
const (
	CompressionNone = "none"
	CompressionGZ   = "gz"
)

// SetOp stores the record op code.
func (h Header) SetOp(op byte) { h[FieldOp] = []byte{op} }

// Op returns the record op code, or an error if the field is missing or
// malformed.
func (h Header) Op() (byte, error) {
	v, ok := h[FieldOp]
	return opField(v, ok, nil)
}

// PutU32 stores a little-endian uint32 field.
func (h Header) PutU32(name string, v uint32) {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, v)
	h[name] = b
}

// PutU64 stores a little-endian uint64 field.
func (h Header) PutU64(name string, v uint64) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	h[name] = b
}

// PutString stores a string-valued field.
func (h Header) PutString(name, v string) { h[name] = []byte(v) }

// PutTime stores a ROS time field (u32 secs, u32 nsecs).
func (h Header) PutTime(name string, t Time) {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[0:4], t.Sec)
	binary.LittleEndian.PutUint32(b[4:8], t.NSec)
	h[name] = b
}

// U32 reads a little-endian uint32 field.
func (h Header) U32(name string) (uint32, error) {
	v, ok := h[name]
	return u32Field(name, v, ok, nil)
}

// U64 reads a little-endian uint64 field.
func (h Header) U64(name string) (uint64, error) {
	v, ok := h[name]
	if !ok {
		return 0, errMissing(name)
	}
	if len(v) != 8 {
		return 0, fmt.Errorf("bagio: field %q has length %d, want 8", name, len(v))
	}
	return binary.LittleEndian.Uint64(v), nil
}

// String reads a string-valued field.
func (h Header) String(name string) (string, error) {
	v, ok := h[name]
	if !ok {
		return "", errMissing(name)
	}
	return string(v), nil
}

// GetTime reads a ROS time field.
func (h Header) GetTime(name string) (Time, error) {
	v, ok := h[name]
	return timeField(name, v, ok, nil)
}

func errMissing(name string) error { return fmt.Errorf("bagio: header missing %q field", name) }

// opField, u32Field and timeField check and decode one field value (ok
// reports it present, err a failed walk to it) for both Header and
// RawHeader, so the two accept exactly the same widths.
func opField(v []byte, ok bool, err error) (byte, error) {
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, errMissing(FieldOp)
	}
	if len(v) != 1 {
		return 0, fmt.Errorf("bagio: op field has length %d, want 1", len(v))
	}
	return v[0], nil
}

func u32Field(name string, v []byte, ok bool, err error) (uint32, error) {
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, errMissing(name)
	}
	if len(v) != 4 {
		return 0, fmt.Errorf("bagio: field %q has length %d, want 4", name, len(v))
	}
	return binary.LittleEndian.Uint32(v), nil
}

func timeField(name string, v []byte, ok bool, err error) (Time, error) {
	if err != nil {
		return Time{}, err
	}
	if !ok {
		return Time{}, errMissing(name)
	}
	if len(v) != 8 {
		return Time{}, fmt.Errorf("bagio: time field %q has length %d, want 8", name, len(v))
	}
	return Time{
		Sec:  binary.LittleEndian.Uint32(v[0:4]),
		NSec: binary.LittleEndian.Uint32(v[4:8]),
	}, nil
}

// EncodedLen returns the byte length of the header when encoded.
func (h Header) EncodedLen() int {
	n := 0
	for name, value := range h {
		n += 4 + len(name) + 1 + len(value)
	}
	return n
}

// Encode serializes the header fields. Fields are emitted in sorted name
// order so encoding is deterministic (the spec does not require an order).
func (h Header) Encode() []byte {
	names := make([]string, 0, len(h))
	for name := range h {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := make([]byte, 0, h.EncodedLen())
	var lenb [4]byte
	for _, name := range names {
		value := h[name]
		binary.LittleEndian.PutUint32(lenb[:], uint32(len(name)+1+len(value)))
		buf = append(buf, lenb[:]...)
		buf = append(buf, name...)
		buf = append(buf, '=')
		buf = append(buf, value...)
	}
	return buf
}

// DecodeHeader parses an encoded header block into a Header.
func DecodeHeader(b []byte) (Header, error) {
	h := make(Header)
	if err := walkHeader(b, func(name, value []byte) {
		h[string(name)] = bytes.Clone(value)
	}); err != nil {
		return nil, err
	}
	return h, nil
}

// walkHeader is the one header field parser: it calls fn with the name
// and value of each field of an encoded header block, in order, after
// checking that the field fits the block, has an '=' separator and
// does not repeat an earlier name. name and value alias b.
func walkHeader(b []byte, fn func(name, value []byte)) error {
	// Names seen so far: compared in place while there are few (no
	// header this repository writes has more than seven fields), in a map
	// past that, so a hostile header of many tiny fields stays linear.
	var few [8][]byte
	var many map[string]bool
	for n := 0; len(b) > 0; n++ {
		if len(b) < 4 {
			return fmt.Errorf("bagio: truncated header field length (%d trailing bytes)", len(b))
		}
		fl := binary.LittleEndian.Uint32(b[:4])
		b = b[4:]
		if uint32(len(b)) < fl {
			return fmt.Errorf("bagio: header field length %d exceeds remaining %d bytes", fl, len(b))
		}
		field := b[:fl]
		b = b[fl:]
		eq := bytes.IndexByte(field, '=')
		if eq < 0 {
			return fmt.Errorf("bagio: header field %q has no '=' separator", field)
		}
		name := field[:eq]
		dup := false
		if n < len(few) {
			for _, prev := range few[:n] {
				dup = dup || bytes.Equal(prev, name)
			}
			few[n] = name
		} else {
			if many == nil {
				many = make(map[string]bool, 2*len(few))
				for _, prev := range few {
					many[string(prev)] = true
				}
			}
			dup = many[string(name)]
			many[string(name)] = true
		}
		if dup {
			return fmt.Errorf("bagio: duplicate header field %q", name)
		}
		fn(name, field[eq+1:])
	}
	return nil
}

// RawHeader is an encoded header block read in place, without a map or a
// copy. Each accessor walks it with DecodeHeader's checks and reads its
// field with Header's, so it fails wherever those two would.
type RawHeader []byte

// field returns the value of the named field (ok: present) in place.
func (h RawHeader) field(name string) (v []byte, ok bool, err error) {
	err = walkHeader(h, func(n, value []byte) {
		if string(n) == name {
			v, ok = value, true
		}
	})
	return v, ok, err
}

// Op returns the record op code, as Header.Op.
func (h RawHeader) Op() (byte, error) {
	v, ok, err := h.field(FieldOp)
	return opField(v, ok, err)
}

// U32 reads a little-endian uint32 field, as Header.U32.
func (h RawHeader) U32(name string) (uint32, error) {
	v, ok, err := h.field(name)
	return u32Field(name, v, ok, err)
}

// GetTime reads a ROS time field, as Header.GetTime.
func (h RawHeader) GetTime(name string) (Time, error) {
	v, ok, err := h.field(name)
	return timeField(name, v, ok, err)
}

// Message reads the op and, for a message-data record, the conn and
// time fields in one walk of the header, where Op, U32 and GetTime walk
// it once each; it fails wherever those three would. conn and t are
// zero for any other op.
func (h RawHeader) Message() (op byte, conn uint32, t Time, err error) {
	var o, c, tm []byte
	var hasOp, hasConn, hasTime bool
	err = walkHeader(h, func(name, value []byte) {
		switch string(name) {
		case FieldOp:
			o, hasOp = value, true
		case FieldConn:
			c, hasConn = value, true
		case FieldTime:
			tm, hasTime = value, true
		}
	})
	if op, err = opField(o, hasOp, err); err != nil || op != OpMessageData {
		return op, 0, Time{}, err
	}
	if conn, err = u32Field(FieldConn, c, hasConn, nil); err == nil {
		t, err = timeField(FieldTime, tm, hasTime, nil)
	}
	return op, conn, t, err
}
