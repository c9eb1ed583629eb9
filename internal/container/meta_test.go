package container

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bagio"
)

func TestStampDerivation(t *testing.T) {
	root := filepath.Join(t.TempDir(), "c")
	c, err := Create(root)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := c.CreateTopic(&bagio.Connection{Topic: "/imu", Type: "sensor_msgs/Imu"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Append(bagio.Time{Sec: 1}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	// Stamping an unsealed container is refused.
	if err := StampDerivation(nil, root, "abc123"); err == nil {
		t.Fatal("stamp accepted on a building container")
	}
	if err := c.Seal(); err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	if gen == 0 {
		t.Fatal("sealed container has zero generation")
	}
	if err := StampDerivation(nil, root, "abc123"); err != nil {
		t.Fatal(err)
	}
	if err := StampDerivation(nil, root, "two\nlines"); err == nil {
		t.Error("multi-line address accepted")
	}

	// The stamp survives a reopen, and neither the generation nor the
	// topic manifest moved — a stamp must not read as a rebuild.
	m, err := ReadMeta(root)
	if err != nil {
		t.Fatal(err)
	}
	if m.Derivation != "abc123" {
		t.Errorf("Derivation = %q", m.Derivation)
	}
	if m.Gen != gen {
		t.Errorf("stamp changed generation: %d -> %d", gen, m.Gen)
	}
	if len(m.topics) != 1 || m.topics[0].dir != "imu" || !m.topics[0].summed {
		t.Errorf("topics = %+v", m.topics)
	}
	reopened, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Derivation() != "abc123" {
		t.Errorf("reopened Derivation = %q", reopened.Derivation())
	}
}

// FuzzReadMeta feeds raw bytes to the manifest parser, which reads every
// container a process opens, probes or repairs. It must never panic; a
// manifest it accepts must encode to bytes it reads back the same way
// (torn tail dropped), so the on-disk form has one reading; and the
// container header alone (ReadMetaHead's parse) must agree with it.
func FuzzReadMeta(f *testing.F) {
	conn := &bagio.Connection{ID: 2, Topic: "/imu", Type: "sensor_msgs/Imu", MD5Sum: "6a62c6daae103f4ff57a132d6f95cec2",
		Def: "float64 x\n", Caller: "/driver", Latch: true}
	building := encodeMeta(&Meta{State: StateBuilding, topics: []topicMeta{
		{dir: "imu", conn: conn, window: time.Second},
		{dir: "tf", conn: &bagio.Connection{ID: 3, Topic: "/tf", Type: "tf2_msgs/TFMessage"}, window: 5 * time.Second},
	}})
	f.Add(building)
	f.Add(building[:len(building)-7])
	f.Add(encodeMeta(&Meta{State: StateSealed, Gen: 1 << 50, Derivation: "d41d8cd98f00b204e9800998ecf8427e", topics: []topicMeta{
		{dir: "imu", conn: conn, window: time.Second, summed: true, sum: 0xdeadbeef, size: 4096},
	}}))
	f.Add([]byte("bora-container v2\nstate=sealed\ngen=5\ntopic=imu\n"))
	f.Fuzz(func(t *testing.T, buf []byte) {
		m, err := decodeMeta(buf)
		if err != nil {
			return
		}
		head, _, headErr := decodeHead(buf)
		if headErr != nil || head.State != m.State || head.Gen != m.Gen || head.Derivation != m.Derivation {
			t.Fatalf("the head reads %+v, %v; the manifest %+v", head, headErr, m)
		}
		again, err := decodeMeta(encodeMeta(m))
		if err != nil {
			t.Fatalf("an accepted manifest re-encodes to bytes it refuses: %v", err)
		}
		if again.torn || again.State != m.State || again.Gen != m.Gen || again.Derivation != m.Derivation || len(again.topics) != len(m.topics) {
			t.Fatalf("re-read %+v, want %+v", again, m)
		}
		for i, tm := range m.topics {
			got := again.topics[i]
			if *got.conn != *tm.conn || got.dir != tm.dir || got.window != tm.window ||
				got.summed != tm.summed || got.sum != tm.sum || got.size != tm.size {
				t.Fatalf("topic %d re-read %+v, want %+v", i, got, tm)
			}
		}
	})
}
