// Quickstart: record a bag, organize it with BORA, and query it.
//
// This walks the three BORA operations end to end on real files:
// a synthetic Handheld-SLAM bag is recorded (Table II topic mix),
// duplicated into a BORA container (Fig 6), and then queried by topic
// (Fig 7) and by topic + time range (Fig 8).
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/rosbag"
	"repro/internal/workload"
)

func main() {
	dir, err := os.MkdirTemp("", "bora-quickstart-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Record: synthesize a small Handheld SLAM bag (images scaled
	// down 2000x so the demo stays quick).
	src := filepath.Join(dir, "handheld_slam.bag")
	n, err := workload.WriteHandheldSLAMBag(src, workload.SyntheticOptions{Seconds: 3, ScaleDown: 2000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %s: %d messages\n", src, n)

	// Peek with the stock reader (note the open-time chunk traversal).
	r, f, err := rosbag.Open(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stock open traversed %d chunk infos\n", r.Stats().ChunkInfosScanned)
	f.Close()

	// 2. Duplicate into a BORA container.
	backend, err := core.New(filepath.Join(dir, "backend"), core.Options{TimeWindow: time.Second})
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	bag, stats, err := backend.Duplicate(src, "handheld_slam")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("duplicated into container: %d topics, %d messages in %v\n",
		stats.Topics, stats.Messages, time.Since(start))
	fmt.Printf("topics: %v\n", bag.Topics())

	// 3a. Query by topic (Fig 7): whole-topic sequential reads.
	start = time.Now()
	var imuCount int
	err = bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU}}, func(m core.MessageRef) error {
		imuCount++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query by topic /imu: %d messages in %v\n", imuCount, time.Since(start))

	// 3b. Query by topics + time range (Fig 8): the coarse-grain time
	// index bounds the scan before the fine-grain filter.
	info, err := bag.Info()
	if err != nil {
		log.Fatal(err)
	}
	mid := info.Start.Add(info.End.Sub(info.Start) / 3)
	stop := mid.Add(time.Second)
	start = time.Now()
	var windowCount int
	err = bag.Query(core.QuerySpec{Topics: []string{workload.TopicIMU, workload.TopicTF}, Start: mid, End: stop}, func(m core.MessageRef) error {
		windowCount++
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	st := bag.Stats()
	fmt.Printf("time-range query [%s, %s]: %d messages in %v (scanned %d entries across %d windows)\n",
		mid, stop, windowCount, time.Since(start), st.EntriesScanned, st.WindowsScanned)
}
