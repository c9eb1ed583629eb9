package timeindex

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"
)

// FuzzTimeIndexUnmarshal feeds raw bytes to Unmarshal, the parser of
// every timeidx file a reader loads. It must never panic; it must
// allocate no more than a constant times the input (a window count or
// position count the bytes cannot back is refused before anything is
// sized by it), plus a fixed allowance for the index or the error; and
// any input it accepts must Marshal back to the same bytes, so the
// on-disk form has exactly one spelling.
func FuzzTimeIndexUnmarshal(f *testing.F) {
	golden, err := hex.DecodeString(goldenHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	good, cases := corruptions(f)
	f.Add(good)
	for _, tc := range cases {
		f.Add(tc.in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		// TotalAlloc is process-wide and the fuzzing engine allocates
		// beside the target, so the least of three parses is the
		// parse's own cost.
		var ix *Index
		var err error
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ix, err = Unmarshal(in)
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > uint64(8*len(in)+1024) {
			t.Fatalf("Unmarshal of %d bytes allocated %d", len(in), least)
		}
		if err != nil {
			return
		}
		if out := ix.Marshal(); !bytes.Equal(out, in) {
			t.Fatalf("accepted input re-marshals differently:\n in %x\nout %x", in, out)
		}
	})
}
