// Remote mode: with the global -remote ADDR flag, query, topics and
// record run against a borad daemon over the wire protocol instead of
// opening a back-end directory locally, so many CLI invocations share
// one daemon's handle pool and block cache — and a follow query can
// tail a recording another connection is still uploading.
package main

import (
	"fmt"
	"time"

	"repro/internal/client"
	"repro/internal/workload"
)

// remoteAddr is the global -remote flag: when non-empty, subcommands
// that read bags (query, topics) talk to a borad daemon at this
// address instead of a local -backend directory.
var remoteAddr string

func dialRemote() (*client.Client, error) {
	// The shared registry (global -metrics/-trace flags) records the
	// client-side query spans; trace ids ride the wire either way.
	return client.Dial(remoteAddr, client.Options{Obs: metricsReg})
}

// remoteTopics is cmdTopics against a daemon.
func remoteTopics(name string) error {
	cl, err := dialRemote()
	if err != nil {
		return err
	}
	defer cl.Close()
	bi, err := cl.Info(name)
	if err != nil {
		return err
	}
	for _, t := range bi.Topics {
		fmt.Printf("%-32s %8d msgs  %s\n", t.Topic, t.Count, t.Type)
	}
	return nil
}

// remoteQuery is cmdQuery against a daemon: one streaming QUERY with
// the same topic/time/order selection, counting messages and bytes.
// With spec.Follow, the daemon streams the sealed prefix and then live
// messages until the recording seals (or the process is interrupted —
// closing the connection cancels the server-side stream).
func remoteQuery(name string, spec client.QuerySpec, quiet bool) error {
	cl, err := dialRemote()
	if err != nil {
		return err
	}
	defer cl.Close()
	queryStart := time.Now()
	st, err := cl.Query(name, spec)
	if err != nil {
		return err
	}
	for st.Next() {
		if !quiet {
			m := st.Message()
			fmt.Printf("%s %-32s %d bytes\n", m.Time, m.Topic, len(m.Data))
		}
	}
	if err := st.Err(); err != nil {
		return err
	}
	count, bytes := st.Received()
	fmt.Printf("remote query %v: %d messages, %d bytes from %s (query id %016x)\n",
		time.Since(queryStart), count, bytes, remoteAddr, st.QueryID())
	return nil
}

// remoteRecord is cmdRecord against a daemon: the synthetic Table II
// stream uploaded through one RECORD stream, live or classic.
func remoteRecord(name string, live bool, window time.Duration, opts workload.SyntheticOptions) error {
	cl, err := dialRemote()
	if err != nil {
		return err
	}
	defer cl.Close()
	rs, err := cl.Record(name, client.RecordSpec{Live: live, WindowNanos: uint64(window)})
	if err != nil {
		return err
	}
	start := time.Now()
	n, err := workload.RecordHandheldSLAM(rs, opts)
	if err != nil {
		return err
	}
	if err := rs.Seal(); err != nil {
		return err
	}
	_, bytes := rs.Sent()
	layout := "classic"
	if live {
		layout = "live"
	}
	fmt.Printf("recorded %s on %s (%s layout): %d messages, %d payload bytes in %v\n",
		name, remoteAddr, layout, n, bytes, time.Since(start))
	return nil
}
