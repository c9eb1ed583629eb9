package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bagio"
	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/pool"
	"repro/internal/rosbag"
	"repro/internal/server/wire"
	"repro/internal/tagman"
	"repro/internal/timeindex"
	"repro/internal/workload"
)

// probes times single layers in isolation, from outside, through their
// public functions: the layers an end-to-end op only reaches through
// core. They run in every traced run, on the small D0 dataset, so each
// per-layer metric has a value on every workload. dir is theirs to
// build containers in.
func probes(out metrics, src, dir string) error {
	b, err := core.New(filepath.Join(dir, "backend"), core.Options{})
	if err != nil {
		return err
	}
	if _, _, err := b.Duplicate(src, bagName); err != nil {
		return err
	}
	root, scratch := filepath.Join(b.Root(), bagName), filepath.Join(dir, "scratch")
	if err := probeRosbag(out, src); err != nil {
		return fmt.Errorf("rosbag probe: %w", err)
	}
	if err := probeContainerRead(out, root); err != nil {
		return fmt.Errorf("container read probe: %w", err)
	}
	if err := probeContainerAppend(out, scratch); err != nil {
		return fmt.Errorf("container append probe: %w", err)
	}
	probeTimeindex(out)
	if err := probeTagman(out, root); err != nil {
		return fmt.Errorf("tagman probe: %w", err)
	}
	if err := probeWire(out); err != nil {
		return fmt.Errorf("wire probe: %w", err)
	}
	return nil
}

// medianOf runs f reps times and returns the median of what it reports.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	vs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vs = append(vs, v)
	}
	return median(vs), nil
}

// probeRosbag scans the source bag sequentially with a no-op callback,
// the way Duplicate reads it: the ceiling Duplicate's message rate can
// approach.
func probeRosbag(out metrics, src string) (err error) {
	out["rosbag.scan_msgs_per_s"], err = medianOf(5, func() (float64, error) {
		f, err := os.Open(src)
		if err != nil {
			return 0, err
		}
		defer f.Close()
		info, err := f.Stat()
		if err != nil {
			return 0, err
		}
		var n float64
		t0 := time.Now()
		err = rosbag.Scan(f, info.Size(), func(*bagio.Connection, bagio.Time, []byte) error { n++; return nil })
		return n / time.Since(t0).Seconds(), err
	})
	return err
}

// probeContainerRead times the container's two read paths on /imu, the
// highest-rate topic — the per-topic index load of a cold open, and the
// per-message read with and without a block cache underneath.
func probeContainerRead(out metrics, root string) (err error) {
	out["container.index_load_ms"], err = medianOf(5, func() (float64, error) {
		c, err := container.Open(root)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, name := range c.Topics() {
			t, err := c.Topic(name)
			if err != nil {
				return 0, err
			}
			if _, err := t.Entries(); err != nil {
				return 0, err
			}
		}
		return ms(time.Since(t0)), nil
	})
	if err != nil {
		return err
	}
	readLoop := func(c *container.Container) (float64, error) {
		t, err := c.Topic(workload.TopicIMU)
		if err != nil {
			return 0, err
		}
		entries, err := t.Entries()
		if err != nil {
			return 0, err
		}
		var scratch []byte
		t0 := time.Now()
		df, err := t.OpenData()
		if err != nil {
			return 0, err
		}
		defer df.Close()
		for _, e := range entries {
			if _, err := t.ReadMessageInto(df, e, &scratch); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / float64(len(entries)), nil
	}
	c, err := container.Open(root)
	if err != nil {
		return err
	}
	if out["container.read_ns_per_msg"], err = medianOf(9, func() (float64, error) { return readLoop(c) }); err != nil {
		return err
	}
	c.SetBlockCache(pool.NewBlockLRU(pool.DefaultBlockCacheBytes, pool.DefaultBlockSize, nil))
	if _, err := readLoop(c); err != nil { // fill the cache
		return err
	}
	out["container.read_cached_ns_per_msg"], err = medianOf(9, func() (float64, error) { return readLoop(c) })
	return err
}

// probeContainerAppend times TopicWriter.Append, the write both
// Duplicate and the live Recorder end in.
func probeContainerAppend(out metrics, scratch string) (err error) {
	const n = 20_000
	payload := make([]byte, followPayload)
	rep := 0
	out["container.append_ns_per_msg"], err = medianOf(5, func() (float64, error) {
		rep++
		root := filepath.Join(scratch, fmt.Sprintf("append-%d", rep))
		defer os.RemoveAll(root)
		c, err := container.Create(root)
		if err != nil {
			return 0, err
		}
		tw, err := c.CreateTopic(&bagio.Connection{Topic: "/probe", Type: "bora_bench/Probe"})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := tw.Append(bagio.TimeFromNanos(baseNs+int64(i)*1e6), payload); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		return float64(d) / n, tw.Close()
	})
	return err
}

// probeTimeindex builds the coarse time index over 60 s of /imu-rate
// timestamps and asks it for a 10 s window.
func probeTimeindex(out metrics) {
	const hz, seconds = 508, 60
	times := make([]bagio.Time, hz*seconds)
	for i := range times {
		times[i] = bagio.TimeFromNanos(baseNs + int64(i)*int64(1e9)/hz)
	}
	var ix *timeindex.Index
	out["timeindex.build_ms"], _ = medianOf(21, func() (float64, error) {
		t0 := time.Now()
		ix = timeindex.Build(timeindex.DefaultWindow, times)
		return ms(time.Since(t0)), nil
	})
	start, end := windowAt(20)
	out["timeindex.query_us"], _ = medianOf(201, func() (float64, error) {
		t0 := time.Now()
		got := ix.QuerySorted(bagio.TimeFromNanos(start), bagio.TimeFromNanos(end))
		d := time.Since(t0)
		if len(got) != hz*windowSeconds {
			return 0, fmt.Errorf("timeindex returned %d positions, want %d", len(got), hz*windowSeconds)
		}
		return float64(d) / 1e3, nil
	})
}

// probeTagman times the tag table every open rebuilds (the paper's
// Table I) and the per-query lookup (Fig 7), on the bag's own topics.
func probeTagman(out metrics, root string) (err error) {
	c, err := container.Open(root)
	if err != nil {
		return err
	}
	paths := map[string]string{}
	for _, t := range c.Topics() {
		if paths[t], err = c.TopicPath(t); err != nil {
			return err
		}
	}
	var table *tagman.Table
	out["tagman.build_us"], _ = medianOf(201, func() (float64, error) {
		t0 := time.Now()
		table = tagman.Build(paths)
		return float64(time.Since(t0)) / 1e3, nil
	})
	out["tagman.lookup_ns"], err = medianOf(21, func() (float64, error) {
		const n = 1000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if _, err := table.Lookup(smallTopics); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / n, nil
	})
	return err
}

// probeWire times the frame codec on an in-memory buffer, with an
// /imu-sized payload: what one MSG frame costs each side before any
// socket is involved.
func probeWire(out metrics) (err error) {
	const n = 50_000
	msg := wire.Msg{Conn: 1, Time: bagio.TimeFromNanos(baseNs), Data: make([]byte, followPayload)}
	var buf bytes.Buffer
	var enc wire.Encoder
	if out["wire.encode_ns_per_frame"], err = medianOf(5, func() (float64, error) {
		buf.Reset()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := enc.WriteMsg(&buf, msg); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0)) / n, nil
	}); err != nil {
		return err
	}
	encoded := buf.Bytes()
	var frame []byte
	out["wire.decode_ns_per_frame"], err = medianOf(5, func() (float64, error) {
		r := bytes.NewReader(encoded)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f, err := wire.ReadFrameInto(r, 0, &frame)
			if err != nil {
				return 0, err
			}
			if _, err := wire.DecodeMsg(f.Payload); err != nil {
				return 0, err
			}
		}
		d := time.Since(t0)
		if _, err := r.ReadByte(); err != io.EOF {
			return 0, fmt.Errorf("decoded %d frames but bytes remain", n)
		}
		return float64(d) / n, nil
	})
	return err
}
