package build

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/container"
	"repro/internal/core"
	"repro/internal/obs"
)

// Options configures a Builder.
type Options struct {
	// Workers bounds how many derivations materialize concurrently;
	// <= 0 means GOMAXPROCS. Dependency order is respected regardless.
	Workers int
}

// Builder materializes build graphs against one BORA back end.
type Builder struct {
	b       *core.BORA
	workers int

	derive    *obs.Op      // build.derive: one timed event per materialization
	cacheHits *obs.Counter // build.cache_hits
	rebuilds  *obs.Counter // build.rebuilds
	bytesMat  *obs.Counter // build.bytes_materialized

	// inflight is the per-address singleflight: concurrent requests for
	// one address wait for the holder and then take the cache hit.
	mu       sync.Mutex
	inflight map[string]chan struct{}
}

// New returns a Builder over b. A nil obs registry on b is fine — the
// instruments degrade to no-ops.
func New(b *core.BORA, opts Options) *Builder {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := b.Obs()
	return &Builder{
		b:         b,
		workers:   workers,
		derive:    reg.Op("build.derive"),
		cacheHits: reg.Counter("build.cache_hits"),
		rebuilds:  reg.Counter("build.rebuilds"),
		bytesMat:  reg.Counter("build.bytes_materialized"),
		inflight:  make(map[string]chan struct{}),
	}
}

// Result reports one derivation's outcome.
type Result struct {
	Name    string // output bag name
	Address string // content address of the derivation
	// Rebuilt is false when the existing output already carried the
	// address — the no-op rebuild. Messages and Bytes are zero then: the
	// point of a cache hit is that nothing was read or written.
	Rebuilt  bool
	Messages int64  // messages materialized
	Bytes    int64  // payload bytes materialized
	Gen      uint64 // output's sealed generation token
	Err      error  // why this derivation (or a dependency) failed
}

// Build materializes every derivation of g, dependencies first,
// fanning independent derivations over the worker pool. The returned
// results align with g.Derivations. A derivation failure skips its
// dependents (their Err records the broken dependency) but does not
// stop unrelated subgraphs; the returned error joins every failure.
func (bld *Builder) Build(g *Graph) ([]Result, error) {
	return bld.BuildContext(context.Background(), g)
}

// BuildContext is Build bound to ctx: derivations not yet started when
// ctx is cancelled fail with ctx.Err().
func (bld *Builder) BuildContext(ctx context.Context, g *Graph) ([]Result, error) {
	// Re-validate: a Graph assembled by hand (not via ParseSpec/NewGraph)
	// must not be able to hang the scheduler on a cycle.
	g, err := NewGraph(g.Derivations)
	if err != nil {
		return nil, err
	}
	n := len(g.Derivations)
	results := make([]Result, n)
	done := make([]chan struct{}, n) // closed when derivation i settles
	for i := range done {
		done[i] = make(chan struct{})
	}
	sem := make(chan struct{}, bld.workers)
	var wg sync.WaitGroup
	for _, i := range g.order {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer close(done[i])
			d := g.Derivations[i]
			results[i] = Result{Name: d.Name}
			if p, ok := g.index[d.From]; ok {
				<-done[p]
				if results[p].Err != nil {
					results[i].Err = fmt.Errorf("build %s: dependency %s failed", d.Name, d.From)
					return
				}
			}
			if err := ctx.Err(); err != nil {
				results[i].Err = fmt.Errorf("build %s: %w", d.Name, err)
				return
			}
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				results[i].Err = fmt.Errorf("build %s: %w", d.Name, ctx.Err())
				return
			}
			results[i] = bld.buildOne(d)
		}(i)
	}
	wg.Wait()
	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, results[i].Err)
		}
	}
	return results, errors.Join(errs...)
}

// buildOne materializes a single derivation: probing, addressing,
// cache check, rebuild.
func (bld *Builder) buildOne(d Derivation) Result {
	r := Result{Name: d.Name}
	r.Err = bld.derivedo(d, &r)
	if r.Err != nil {
		r.Err = fmt.Errorf("build %s: %w", d.Name, r.Err)
	}
	return r
}

func (bld *Builder) derivedo(d Derivation, r *Result) error {
	gen, recording, err := bld.b.ProbeBag(d.From)
	if err != nil {
		return fmt.Errorf("probe source %s: %w", d.From, err)
	}
	if recording {
		return fmt.Errorf("source %s is still recording; derivations need a sealed generation", d.From)
	}
	addr, err := Address(d.From, gen, d.TransformSpec)
	if err != nil {
		return err
	}
	r.Address = addr

	// Singleflight per address: the second concurrent builder of one
	// address waits and then reads the first one's output as a hit.
	var flight chan struct{}
	for {
		bld.mu.Lock()
		ch, busy := bld.inflight[addr]
		if !busy {
			flight = make(chan struct{})
			bld.inflight[addr] = flight
			bld.mu.Unlock()
			break
		}
		bld.mu.Unlock()
		<-ch
	}
	defer func() {
		bld.mu.Lock()
		delete(bld.inflight, addr)
		bld.mu.Unlock()
		close(flight)
	}()

	outRoot := filepath.Join(bld.b.Root(), d.Name)
	if meta, err := container.ReadMetaHead(outRoot); err == nil && meta.Sealed() && meta.Derivation == addr {
		bld.cacheHits.Inc()
		r.Gen = meta.Gen
		return nil
	}
	return bld.materialize(d, addr, outRoot, r)
}

func (bld *Builder) materialize(d Derivation, addr, outRoot string, r *Result) (err error) {
	sp := bld.derive.Start()
	defer func() {
		if err != nil {
			sp.EndErr(err)
		} else {
			sp.EndBytes(r.Bytes)
		}
	}()

	// Whatever sits at the output name — a stale generation, a crashed
	// half-build, an unrelated bag — goes. A daemon's pool over the same
	// back end notices on its next Acquire (the generation probe).
	if _, statErr := os.Stat(outRoot); statErr == nil {
		if err := bld.b.Remove(d.Name); err != nil {
			return fmt.Errorf("remove stale output: %w", err)
		}
	}

	// A handle of the build's own: a builder is a one-shot process with
	// no pool to share one through (DESIGN §5).
	src, err := bld.b.Open(d.From)
	if err != nil {
		return fmt.Errorf("open source %s: %w", d.From, err)
	}
	spec, err := d.TransformSpec.QuerySpec()
	if err != nil {
		return err
	}
	out, kept, err := bld.b.Rebag(src, d.Name, spec)
	if err != nil {
		return err
	}
	r.Messages = kept
	for _, topic := range out.Container().Topics() {
		t, terr := out.Container().Topic(topic)
		if terr != nil {
			return terr
		}
		sz, terr := t.DataSize()
		if terr != nil {
			return terr
		}
		r.Bytes += sz
	}
	if err := container.StampDerivation(bld.b.FS(), outRoot, addr); err != nil {
		return fmt.Errorf("stamp derivation: %w", err)
	}
	r.Rebuilt = true
	r.Gen = out.Generation()
	bld.rebuilds.Inc()
	bld.bytesMat.Add(r.Bytes)
	return nil
}
