package bagio

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := make(Header)
	h.SetOp(OpMessageData)
	h.PutU32("conn", 7)
	h.PutU64("index_pos", 1<<40)
	h.PutString("topic", "/camera/rgb/image_color")
	h.PutTime("time", Time{Sec: 100, NSec: 999})

	got, err := DecodeHeader(h.Encode())
	if err != nil {
		t.Fatalf("DecodeHeader: %v", err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Errorf("round trip mismatch:\n in: %v\nout: %v", h, got)
	}
}

func TestHeaderFieldAccessors(t *testing.T) {
	h := make(Header)
	h.PutU32("a", 42)
	h.PutU64("b", 1<<33)
	h.PutString("c", "hello")
	h.PutTime("d", Time{Sec: 5, NSec: 6})

	if v, err := h.U32("a"); err != nil || v != 42 {
		t.Errorf("U32(a) = %d, %v; want 42", v, err)
	}
	if v, err := h.U64("b"); err != nil || v != 1<<33 {
		t.Errorf("U64(b) = %d, %v; want 2^33", v, err)
	}
	if v, err := h.String("c"); err != nil || v != "hello" {
		t.Errorf("String(c) = %q, %v", v, err)
	}
	if v, err := h.GetTime("d"); err != nil || v != (Time{Sec: 5, NSec: 6}) {
		t.Errorf("GetTime(d) = %v, %v", v, err)
	}
}

func TestHeaderMissingAndMalformedFields(t *testing.T) {
	h := make(Header)
	if _, err := h.U32("nope"); err == nil {
		t.Error("U32 on missing field should error")
	}
	if _, err := h.U64("nope"); err == nil {
		t.Error("U64 on missing field should error")
	}
	if _, err := h.String("nope"); err == nil {
		t.Error("String on missing field should error")
	}
	if _, err := h.GetTime("nope"); err == nil {
		t.Error("GetTime on missing field should error")
	}
	if _, err := h.Op(); err == nil {
		t.Error("Op on missing field should error")
	}
	h["short"] = []byte{1, 2}
	if _, err := h.U32("short"); err == nil {
		t.Error("U32 on 2-byte field should error")
	}
	if _, err := h.U64("short"); err == nil {
		t.Error("U64 on 2-byte field should error")
	}
	if _, err := h.GetTime("short"); err == nil {
		t.Error("GetTime on 2-byte field should error")
	}
	h[FieldOp] = []byte{1, 2}
	if _, err := h.Op(); err == nil {
		t.Error("Op on 2-byte field should error")
	}
}

func TestDecodeHeaderRejectsCorruption(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
	}{
		{"truncated length", []byte{1, 0}},
		{"length beyond data", []byte{10, 0, 0, 0, 'a', '=', 'b'}},
		{"no equals", []byte{3, 0, 0, 0, 'a', 'b', 'c'}},
	}
	for _, tc := range cases {
		if _, err := DecodeHeader(tc.in); err == nil {
			t.Errorf("%s: DecodeHeader accepted corrupt input", tc.name)
		}
	}
}

func TestDecodeHeaderRejectsDuplicateField(t *testing.T) {
	// One field, and more fields than the walker compares in place.
	for _, n := range []int{1, 10} {
		h := make(Header)
		for i := range n {
			h.PutString(fmt.Sprintf("f%d", i), "1")
		}
		enc := h.Encode()
		field := len(enc) / n // every field encodes to the same length
		for _, dup := range [][]byte{enc[:field], enc[len(enc)-field:]} {
			if _, err := DecodeHeader(append(bytes.Clone(enc), dup...)); err == nil {
				t.Errorf("%d fields: DecodeHeader accepted a second %q", n, dup[4:])
			}
		}
	}
}

func TestHeaderEncodedLenMatches(t *testing.T) {
	h := make(Header)
	h.SetOp(OpChunk)
	h.PutString(FieldCompression, CompressionNone)
	h.PutU32(FieldSize, 12345)
	if got, want := len(h.Encode()), h.EncodedLen(); got != want {
		t.Errorf("encoded %d bytes, EncodedLen says %d", got, want)
	}
}

// TestHeaderRoundTripQuick property-tests arbitrary string-keyed headers.
func TestHeaderRoundTripQuick(t *testing.T) {
	f := func(keys []string, vals [][]byte) bool {
		h := make(Header)
		for i, k := range keys {
			if k == "" || bytes.ContainsRune([]byte(k), '=') {
				continue // '=' is the separator; empty names are not representable
			}
			var v []byte
			if i < len(vals) {
				v = vals[i]
			}
			if v == nil {
				v = []byte{}
			}
			h[k] = v
		}
		got, err := DecodeHeader(h.Encode())
		if err != nil {
			return false
		}
		if len(got) != len(h) {
			return false
		}
		for k, v := range h {
			if !bytes.Equal(got[k], v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTimeOrderingQuick(t *testing.T) {
	f := func(a, b uint32, an, bn uint16) bool {
		x := Time{Sec: a, NSec: uint32(an)}
		y := Time{Sec: b, NSec: uint32(bn)}
		// Before must agree with Nanos comparison.
		if x.Before(y) != (x.Nanos() < y.Nanos()) {
			return false
		}
		return TimeFromNanos(x.Nanos()) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTimeArithmetic(t *testing.T) {
	x := Time{Sec: 10, NSec: 500_000_000}
	y := x.Add(600 * 1e6) // +600ms
	if y != (Time{Sec: 11, NSec: 100_000_000}) {
		t.Errorf("Add: got %v", y)
	}
	if d := y.Sub(x); d != 600*1e6 {
		t.Errorf("Sub: got %v", d)
	}
	if !x.Before(y) || y.Before(x) || x.Equal(y) {
		t.Error("ordering relations wrong")
	}
	if TimeFromNanos(-5) != (Time{}) {
		t.Error("negative nanos should clamp to zero time")
	}
	if !(Time{}).IsZero() || x.IsZero() {
		t.Error("IsZero wrong")
	}
	if x.String() != "10.500000000" {
		t.Errorf("String: %s", x.String())
	}
}

func TestHeaderEncodeDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := make(Header)
	for i := 0; i < 20; i++ {
		h.PutU32(string(rune('a'+i)), rng.Uint32())
	}
	first := h.Encode()
	for i := 0; i < 10; i++ {
		if !bytes.Equal(first, h.Encode()) {
			t.Fatal("Encode is not deterministic")
		}
	}
}
