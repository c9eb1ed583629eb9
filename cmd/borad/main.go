// Command borad is the BORA bag-serving daemon: it exposes a back-end
// directory of organized containers over the length-prefixed wire
// protocol (internal/server/wire), serving every open through a shared
// handle pool so concurrent clients reuse open bag handles and block
// cache instead of paying a cold open per query.
//
// Usage:
//
//	borad -backend DIR [-listen ADDR] [-http ADDR]
//	      [-max-queries N] [-drain DUR] [-slow DUR] [-slowlog FILE]
//	      [-querylog N] [-trace FILE] [-pprof]
//	      [-cluster FILE -node NAME]
//
// Flags:
//
//	-backend DIR    BORA back-end directory to serve (required)
//	-listen ADDR    TCP listen address for the wire protocol (default :7712)
//	-cluster FILE   membership file ("name addr" lines) naming every borad
//	                of the cluster; all of them must serve the same shared
//	                back end. The daemon only validates its own entry and
//	                logs the ring — placement lives client-side.
//	-node NAME      this daemon's member name in -cluster (required with it)
//	-http ADDR      optional HTTP sidecar: /metrics (obs snapshot JSON),
//	                /healthz (200 ok / 503 draining), /statz (server
//	                stats), /slowqueries (the query log)
//	-max-queries N  concurrent query streams admitted across all
//	                connections before BUSY (default 64)
//	-drain DUR      graceful-drain deadline on SIGTERM/SIGINT (default 30s)
//	-slow DUR       slow-query threshold; queries at least this slow are
//	                marked slow and written to -slowlog (0 = disabled)
//	-slowlog FILE   append slow queries as JSON lines ("-" = stderr)
//	-querylog N     completed-query records kept in memory for
//	                /slowqueries (default 1024)
//	-trace FILE     record spans and write a Chrome trace JSON on exit;
//	                merge with a client's via "borabag trace-merge"
//	-pprof          mount net/http/pprof under /debug/pprof/ on -http
//
// On SIGTERM or SIGINT the daemon drains: listeners close, in-flight
// query streams run to completion (bounded by -drain), then it exits. A
// second signal aborts immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cluster/ring"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// validateCluster checks the -cluster/-node pairing early: the
// membership file must parse, build a ring, and contain this daemon.
// Placement itself lives client-side — the daemon just refuses to boot
// into a cluster that cannot agree on who it is.
func validateCluster(cfg config) error {
	if cfg.cluster == "" {
		if cfg.node != "" {
			return fmt.Errorf("-node %q given without -cluster", cfg.node)
		}
		return nil
	}
	if cfg.node == "" {
		return fmt.Errorf("-cluster requires -node (this daemon's member name)")
	}
	members, err := ring.LoadMembers(cfg.cluster)
	if err != nil {
		return fmt.Errorf("-cluster: %w", err)
	}
	r, err := ring.New(members, 0)
	if err != nil {
		return fmt.Errorf("-cluster: %w", err)
	}
	self, ok := ring.Find(members, cfg.node)
	if !ok {
		return fmt.Errorf("-node %q is not in %s", cfg.node, cfg.cluster)
	}
	fmt.Fprintf(os.Stderr, "borad: cluster member %s (%s), %d-node ring:\n", self.Name, self.Addr, r.Len())
	for _, m := range r.Members() {
		marker := " "
		if m.Name == self.Name {
			marker = "*"
		}
		fmt.Fprintf(os.Stderr, "borad:  %s %s %s\n", marker, m.Name, m.Addr)
	}
	return nil
}

// config collects borad's flag values.
type config struct {
	backend    string
	listen     string
	httpAddr   string
	maxQueries int
	drain      time.Duration
	slow       time.Duration
	slowlog    string
	querylog   int
	trace      string
	pprof      bool
	cluster    string
	node       string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.backend, "backend", "", "BORA back-end directory (required)")
	flag.StringVar(&cfg.listen, "listen", ":7712", "TCP listen address for the wire protocol")
	flag.StringVar(&cfg.httpAddr, "http", "", "HTTP sidecar listen address (empty = disabled)")
	flag.IntVar(&cfg.maxQueries, "max-queries", server.DefaultMaxQueries, "concurrent query streams before BUSY")
	flag.DurationVar(&cfg.drain, "drain", 30*time.Second, "graceful-drain deadline on SIGTERM/SIGINT")
	flag.DurationVar(&cfg.slow, "slow", 0, "slow-query threshold (0 = disabled)")
	flag.StringVar(&cfg.slowlog, "slowlog", "", "append slow queries as JSON lines to FILE (\"-\" = stderr)")
	flag.IntVar(&cfg.querylog, "querylog", 0, "completed-query records kept for /slowqueries (0 = default)")
	flag.StringVar(&cfg.trace, "trace", "", "write a Chrome trace JSON to FILE on exit")
	flag.BoolVar(&cfg.pprof, "pprof", false, "mount net/http/pprof on the -http sidecar")
	flag.StringVar(&cfg.cluster, "cluster", "", "cluster membership file (\"name addr\" lines)")
	flag.StringVar(&cfg.node, "node", "", "this daemon's member name in -cluster")
	flag.Parse()
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "borad:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.backend == "" {
		return fmt.Errorf("-backend is required")
	}
	if err := validateCluster(cfg); err != nil {
		return err
	}
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	if cfg.trace != "" {
		tracer = obs.NewTracer(0)
		reg.AttachTracer(tracer)
	}
	b, err := core.New(cfg.backend, core.Options{Obs: reg})
	if err != nil {
		return err
	}

	var slowSink io.Writer
	if cfg.slowlog != "" {
		if cfg.slowlog == "-" {
			slowSink = os.Stderr
		} else {
			f, err := os.OpenFile(cfg.slowlog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("-slowlog: %w", err)
			}
			defer f.Close()
			slowSink = f
		}
	}
	qlog := obs.NewQueryLog(cfg.querylog, cfg.slow, slowSink)

	srv := server.New(b, server.Options{
		MaxQueries: cfg.maxQueries, QueryLog: qlog, Pprof: cfg.pprof,
	})

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "borad: serving %s on %s (max-queries=%d)\n",
		cfg.backend, ln.Addr(), cfg.maxQueries)

	var hsrv *http.Server
	if cfg.httpAddr != "" {
		hln, err := net.Listen("tcp", cfg.httpAddr)
		if err != nil {
			ln.Close()
			return err
		}
		fmt.Fprintf(os.Stderr, "borad: http sidecar on %s\n", hln.Addr())
		hsrv = &http.Server{Handler: srv.HTTPHandler()}
		go hsrv.Serve(hln)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	writeTrace := func() {
		if tracer == nil {
			return
		}
		f, err := os.Create(cfg.trace)
		if err != nil {
			fmt.Fprintln(os.Stderr, "borad: trace:", err)
			return
		}
		defer f.Close()
		if err := tracer.WriteChromeTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, "borad: trace:", err)
		}
	}

	select {
	case err := <-errCh:
		writeTrace()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "borad: %v: draining (deadline %v)\n", sig, cfg.drain)
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drain)
	defer cancel()
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "borad: second signal: aborting")
		cancel()
	}()
	err = srv.Shutdown(ctx)
	if hsrv != nil {
		hsrv.Close()
	}
	writeTrace()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	fmt.Fprintln(os.Stderr, "borad: drained")
	return nil
}
