package container

import (
	"bytes"
	"sort"
	"testing"
)

// FuzzIndexView: for any bytes, a view counts their whole entries and
// reports the torn tail's length; At, Time, Slice, Append and
// SortedByTime never panic on an entry it counts; every entry is what
// decodeIndexEntry reads at its offset and encodes back to the same
// bytes; and nothing a view builds writes into the bytes it was made of.
func FuzzIndexView(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, IndexEntrySize-1))
	f.Add(bytes.Repeat([]byte{0xff, 1, 0, 7}, 2*IndexEntrySize/4+3))
	f.Fuzz(func(t *testing.T, b []byte) {
		orig := bytes.Clone(b)
		v := IndexView{b: b[:len(b):len(b)]}
		if v.Len() != len(b)/IndexEntrySize || v.tail() != len(b)%IndexEntrySize {
			t.Fatalf("%d bytes: Len %d, tail %d", len(b), v.Len(), v.tail())
		}
		whole := v.Slice(0, v.Len())
		if whole.Len() != v.Len() || whole.tail() != 0 {
			t.Fatalf("the whole entries of %d bytes: Len %d, tail %d", len(b), whole.Len(), whole.tail())
		}
		var built IndexView
		for i := 0; i < v.Len(); i++ {
			e := v.At(i)
			if want := decodeIndexEntry(b[i*IndexEntrySize:]); e != want {
				t.Fatalf("At(%d) = %+v, decodeIndexEntry %+v", i, e, want)
			}
			if v.Time(i) != e.Time {
				t.Fatalf("Time(%d) = %v, At's %v", i, v.Time(i), e.Time)
			}
			var enc [IndexEntrySize]byte
			e.encode(enc[:])
			if !bytes.Equal(enc[:], b[i*IndexEntrySize:(i+1)*IndexEntrySize]) {
				t.Fatalf("entry %d does not encode back to its bytes", i)
			}
			built = built.Append(e)
		}
		if !bytes.Equal(built.b, b[:v.Len()*IndexEntrySize]) {
			t.Fatal("appending every entry did not rebuild the whole entries' bytes")
		}
		if v.Len() > 0 {
			if grown := whole.Append(v.At(0)); grown.At(v.Len()) != v.At(0) || grown.Len() != v.Len()+1 {
				t.Fatal("an entry appended to a slice of the view is not the last")
			}
		}
		sorted := v.SortedByTime()
		if sorted.Len() != v.Len() || !sort.SliceIsSorted(sorted.entries(), func(i, j int) bool {
			return sorted.Time(i).Before(sorted.Time(j))
		}) {
			t.Fatal("SortedByTime is not the view's entries in time order")
		}
		if !bytes.Equal(b, orig) {
			t.Fatal("a view wrote into the bytes it reads")
		}
	})
}
