package wire

import (
	"bytes"
	"testing"

	"repro/internal/bagio"
	"repro/internal/spec"
)

// FuzzDecodeFrame feeds raw bytes through the frame decoder and every
// typed payload decoder reachable from it. It must never panic, and a
// frame whose length prefix exceeds the limit (or whose payload is
// truncated) must be rejected without allocating anything close to the
// advertised length — the 1 MiB frame limit plus the bounded prealloc
// caps keep a hostile 20-byte input from costing real memory.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(frameBytes(OpPing, []byte("nonce")))
	f.Add(frameBytes(OpCancel, nil))
	f.Add(frameBytes(OpQuery, EncodeQuery(QueryReq{
		Name:   "robot1",
		Query:  spec.Query{Topics: []string{"/imu", "/tf"}, Start: bagio.Time{Sec: 1}, End: bagio.Time{Sec: 2}},
		Window: 64,
	})))
	f.Add(frameBytes(OpQuery, EncodeQuery(QueryReq{ // byte-counted credit, traced, following
		Name:       "robot1",
		Window:     1 << 20,
		TraceID:    7,
		ParentSpan: 8,
		Query:      spec.Query{Follow: true},
		ByteCredit: true,
	})))
	f.Add(frameBytes(OpQueryHdr, EncodeQueryHdr([]ConnMeta{{Topic: "/imu", Type: "sensor_msgs/Imu"}})))
	f.Add(frameBytes(OpMsg, EncodeMsg(Msg{Conn: 0, Time: bagio.Time{Sec: 3, NSec: 4}, Data: []byte("data")})))
	f.Add(frameBytes(OpEnd, EncodeEnd(End{Count: 1, Bytes: 4})))
	f.Add(frameBytes(OpBagInfo, EncodeBagInfo(BagInfo{Name: "b", Topics: []TopicInfo{{Topic: "/imu", Type: "t", Count: 9}}})))
	f.Add(frameBytes(OpCredit, EncodeCredit(16)))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, byte(OpMsg)}) // lying length
	f.Add([]byte{0, 0, 0, 0, 0x7f})                    // unknown opcode
	f.Add(frameBytes(OpQuery, EncodeQuery(QueryReq{    // strided
		Name:   "robot1",
		Query:  spec.Query{Start: bagio.Time{Sec: 1}, Stride: 10},
		Window: 64,
	})))
	f.Add(frameBytes(OpQuery, EncodeQuery(QueryReq{ // traced and strided
		Name:       "robot1",
		Query:      spec.Query{Topics: []string{"/imu"}, Stride: 10},
		Window:     1 << 20,
		TraceID:    7,
		ParentSpan: 8,
	})))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data), 1<<20)
		if err != nil {
			return
		}
		// Decoded payloads must themselves decode without panicking,
		// whatever the opcode claims they are.
		switch fr.Op {
		case OpQuery:
			if q, err := DecodeQuery(fr.Payload); err == nil {
				// Re-encoding a decoded request must survive a second
				// decode (canonical form is a fixed point).
				if _, err := DecodeQuery(EncodeQuery(q)); err != nil {
					t.Fatalf("re-decode of re-encoded query failed: %v", err)
				}
			}
		case OpQueryHdr:
			DecodeQueryHdr(fr.Payload)
		case OpMsg:
			if m, err := DecodeMsg(fr.Payload); err == nil {
				if !bytes.Contains(fr.Payload, m.Data) {
					t.Fatal("decoded Data does not alias the payload")
				}
			}
		case OpEnd:
			DecodeEnd(fr.Payload)
		case OpBagInfo:
			DecodeBagInfo(fr.Payload)
		case OpCredit:
			DecodeCredit(fr.Payload)
		}
	})
}

func frameBytes(op byte, payload []byte) []byte {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, op, payload); err != nil {
		panic(err)
	}
	return buf.Bytes()
}
