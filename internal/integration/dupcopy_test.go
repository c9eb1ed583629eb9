package integration

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

var paperScale = flag.Bool("paper-scale", false, "BenchmarkDuplicateOverCopy also runs the paper-scale bag (ScaleDown 1, ≈1.3 GB)")

// BenchmarkDuplicateOverCopy is Fig 9 on the real clock: a Duplicate and
// a Remove of a bag, against a plain copy of the same bytes — read,
// write, fsync, directory sync, unlink — run alternately, one of each per
// iteration. It reports each side's milliseconds per op and dup/copy,
// the ratio the paper bounds at 1.5 (1.26 on average). The bag is the
// benchmark workload's D0: 10 s of the Table II mix at ScaleDown 200,
// seed 1; -args -paper-scale adds ScaleDown 1.
func BenchmarkDuplicateOverCopy(b *testing.B) {
	type bag struct {
		name      string
		scaleDown int
	}
	bags := []bag{{"D0", 200}}
	if *paperScale {
		bags = append(bags, bag{"paper", 1})
	}
	for _, bg := range bags {
		b.Run(bg.name, func(b *testing.B) {
			dir := b.TempDir()
			src := filepath.Join(dir, "src.bag")
			if _, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{Seconds: 10, ScaleDown: bg.scaleDown, Seed: 1}); err != nil {
				b.Fatal(err)
			}
			st, err := os.Stat(src)
			if err != nil {
				b.Fatal(err)
			}
			bora, err := core.New(filepath.Join(dir, "backend"), core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			copies := filepath.Join(dir, "copies")
			if err := os.Mkdir(copies, 0o755); err != nil {
				b.Fatal(err)
			}
			buf := make([]byte, 1<<20)
			var dup, cp time.Duration
			b.SetBytes(st.Size())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if _, _, err := bora.Duplicate(src, "d0"); err != nil {
					b.Fatal(err)
				}
				if err := bora.Remove("d0"); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if err := plainCopy(src, filepath.Join(copies, "d0.bag"), buf); err != nil {
					b.Fatal(err)
				}
				dup, cp = dup+t1.Sub(t0), cp+time.Since(t1)
			}
			b.ReportMetric(float64(dup.Microseconds())/1e3/float64(b.N), "dup-ms/op")
			b.ReportMetric(float64(cp.Microseconds())/1e3/float64(b.N), "copy-ms/op")
			b.ReportMetric(float64(dup)/float64(cp), "dup/copy")
		})
	}
}

// plainCopy copies src to dst the way a user would without BORA: read
// and write through a buffer (no copy_file_range), fsync the file and
// its directory, then unlink it.
func plainCopy(src, dst string, buf []byte) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	_, err = io.CopyBuffer(struct{ io.Writer }{out}, struct{ io.Reader }{in}, buf)
	if err == nil {
		err = out.Sync()
	}
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(dst))
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return err
	}
	return os.Remove(dst)
}
