package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"

	"repro/forecast"
	"repro/internal/engine"
	"repro/internal/remote"
	"repro/internal/series"
)

// Every workload evolves a population of 100 rules, runs one
// execution per Fit and builds the engine with two shards; the
// process runs with GOMAXPROCS at its default, the core count.
const (
	population = 100
	shards     = 2

	veniceD = 24

	// The paper's Mackey-Glass protocol (Table 2).
	mgD       = 4
	mgSpacing = 6
	mgHorizon = 50
)

// workload is one named set of inputs. Why each exists is recorded in
// BENCHMARK.json and README.md.
type workload struct {
	name        string
	venice      bool // synthetic Venice lagoon levels; otherwise Mackey-Glass
	hours       int  // Venice training hours; as many validation hours follow as a quarter of it
	generations int  // per Fit or refit
	window      int  // WithSlidingWindow rows; 0 for the Fit-only workloads
	chunk       int  // rows per Append on a streaming workload
	remote      bool // through two loopback shard servers
	// subSeeds is how many evolutions a run makes, each from its own
	// seed: one evolution's cost and accuracy depend on its seed, so a
	// run reports medians over several.
	subSeeds int
}

var workloads = []workload{
	{name: "venice-fit", venice: true, hours: 6000, generations: 2000, subSeeds: 8},
	{name: "mackeyglass-fit", generations: 75000, subSeeds: 18},
	{name: "venice-stream", venice: true, hours: 6000, generations: 100, window: 4000, chunk: 250, subSeeds: 12},
	{name: "mackeyglass-remote", generations: 75000, remote: true, subSeeds: 14},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) stream() bool { return w.window > 0 }

// chunk is one Append of a streaming workload.
type chunk struct {
	inputs  [][]float64
	targets []float64
}

// inputs is everything a workload feeds the program, generated from
// the seed.
type inputs struct {
	train  *forecast.Dataset // what the first Fit trains on
	chunks []chunk           // appended after it, in order (streaming workloads)
	val    *forecast.Dataset // scored by Predict
}

// makeInputs synthesizes and windows the workload's data. The seed
// drives the Venice synthesis; the Mackey-Glass series is the paper's
// fixed one, so there the seed is ignored.
func makeInputs(w workload, seed int64) (*inputs, error) {
	var train, val *forecast.Dataset
	if w.venice {
		tr, va, err := series.VenicePaper(w.hours, w.hours/4, seed)
		if err != nil {
			return nil, err
		}
		if train, err = forecast.Window(tr, veniceD, 1); err != nil {
			return nil, err
		}
		if val, err = forecast.Window(va, veniceD, 1); err != nil {
			return nil, err
		}
	} else {
		tr, te, err := series.MackeyGlassPaper()
		if err != nil {
			return nil, err
		}
		if train, err = forecast.Embed(tr, mgD, mgSpacing, mgHorizon); err != nil {
			return nil, err
		}
		if val, err = forecast.Embed(te, mgD, mgSpacing, mgHorizon); err != nil {
			return nil, err
		}
	}
	in := &inputs{train: train, val: val}
	if w.stream() {
		// The first window's worth of hours seeds the Fit; the rest
		// arrives in whole chunks.
		if train.Len() < w.window+w.chunk {
			return nil, fmt.Errorf("%s: %d training rows cannot fill a %d-row window and one chunk", w.name, train.Len(), w.window)
		}
		in.train = subset(train, 0, w.window)
		for lo := w.window; lo+w.chunk <= train.Len(); lo += w.chunk {
			in.chunks = append(in.chunks, chunk{
				inputs:  train.Inputs[lo : lo+w.chunk],
				targets: train.Targets[lo : lo+w.chunk],
			})
		}
	}
	return in, nil
}

// subset returns rows [lo, hi) as a dataset of its own.
func subset(ds *forecast.Dataset, lo, hi int) *forecast.Dataset {
	return &forecast.Dataset{Inputs: ds.Inputs[lo:hi], Targets: ds.Targets[lo:hi], D: ds.D, Horizon: ds.Horizon}
}

// fresh returns a dataset a store may take over: a store compacts and
// numbers the rows of the dataset it is given in place, so every Fit
// gets its own row list. The rows themselves are never written.
func fresh(ds *forecast.Dataset) *forecast.Dataset {
	return &forecast.Dataset{
		Inputs:  append([][]float64(nil), ds.Inputs...),
		Targets: append([]float64(nil), ds.Targets...),
		D:       ds.D,
		Horizon: ds.Horizon,
	}
}

// evolutionSeeds are the seeds of a run's evolutions: disjoint for
// different run seeds.
func (w workload) evolutionSeeds(seed int64) []int64 {
	out := make([]int64, w.subSeeds)
	for i := range out {
		out[i] = seed*int64(w.subSeeds) + int64(i)
	}
	return out
}

// options are the facade options of the workload at an evolution seed.
func (w workload) options(seed int64, generations int, addrs []string) []forecast.Option {
	opts := []forecast.Option{
		forecast.WithPopulation(population),
		forecast.WithGenerations(generations),
		forecast.WithMultiRun(1),
		forecast.WithSeed(seed),
	}
	if w.remote {
		opts = append(opts, forecast.WithRemoteCluster(addrs...))
	} else {
		opts = append(opts, forecast.WithEngine(shards))
	}
	if w.stream() {
		opts = append(opts, forecast.WithSlidingWindow(w.window), forecast.WithSharedCache())
	}
	return opts
}

// servers are the in-process shard servers of a remote workload, one
// shard each, listening on 127.0.0.1.
type servers struct {
	addrs  []string
	cancel context.CancelFunc
	ls     []net.Listener
	wg     sync.WaitGroup
}

func startServers(ctx context.Context, n int) (*servers, error) {
	ctx, cancel := context.WithCancel(ctx)
	s := &servers{cancel: cancel}
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.stop()
			return nil, err
		}
		srv := remote.NewServer(engine.Options{Shards: 1})
		s.ls = append(s.ls, l)
		s.addrs = append(s.addrs, l.Addr().String())
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			err := srv.Serve(ctx, l)
			if !errors.Is(err, net.ErrClosed) {
				fmt.Fprintf(os.Stderr, "shard server: %v\n", err)
			}
		}()
	}
	return s, nil
}

// stop closes the listeners and cancels every open connection's
// requests, then waits for the accept loops to end. Connections end
// when their clients close them.
func (s *servers) stop() {
	if s == nil {
		return
	}
	for _, l := range s.ls {
		l.Close()
	}
	s.cancel()
	s.wg.Wait()
}

// env is a workload set up at a run seed: inputs made, servers
// started.
type env struct {
	w     workload
	seeds []int64 // evolution seeds
	// ins are the inputs of each evolution. A Venice evolution learns
	// a series synthesized from its own seed: what Predict and a Fit
	// cost depends on the series, so a run spreads over several. The
	// Mackey-Glass evolutions share the paper's series.
	ins []*inputs
	srv *servers
}

func newEnv(ctx context.Context, w workload, seed int64) (*env, error) {
	e := &env{w: w, seeds: w.evolutionSeeds(seed)}
	for i, s := range e.seeds {
		if i > 0 && !w.venice {
			e.ins = append(e.ins, e.ins[0])
			continue
		}
		in, err := makeInputs(w, s)
		if err != nil {
			return nil, err
		}
		e.ins = append(e.ins, in)
	}
	if w.remote {
		var err error
		if e.srv, err = startServers(ctx, 2); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func (e *env) close() { e.srv.stop() }

func (e *env) newForecaster(seed int64, generations int) (*forecast.Forecaster, error) {
	var addrs []string
	if e.srv != nil {
		addrs = e.srv.addrs
	}
	return forecast.New(e.w.options(seed, generations, addrs)...)
}
