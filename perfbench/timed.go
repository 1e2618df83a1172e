package main

import (
	"context"
	"net"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/remote"
)

// timedBackend wraps the core.Backend an engine or cluster exposes
// and records each match call as a span. Data and Epoch pass through
// untouched, so the evaluator still adopts the wrapper (it compares
// Data() pointers) and cache keys are unchanged. It is safe for
// concurrent use because the wrapped backend and the recorder are.
type timedBackend struct {
	core.Backend
	rec *recorder
}

func (t *timedBackend) MatchIndices(r *core.Rule) []int {
	start := t.rec.now()
	out := t.Backend.MatchIndices(r)
	t.rec.match(start, r, out)
	return out
}

func (t *timedBackend) MatchBatch(ctx context.Context, rules []*core.Rule) [][]int {
	start := t.rec.now()
	out := t.Backend.MatchBatch(ctx, rules)
	rows := 0
	for _, o := range out {
		rows += len(o)
	}
	t.rec.child(spanBatch, start, rows)
	return out
}

// timedCtx adds core.BackendCtx to the wrapper, for stores that
// implement it.
type timedCtx struct {
	inner core.BackendCtx
	rec   *recorder
}

func (t timedCtx) MatchIndicesCtx(ctx context.Context, r *core.Rule) []int {
	start := t.rec.now()
	out := t.inner.MatchIndicesCtx(ctx, r)
	t.rec.match(start, r, out)
	return out
}

// The evaluator type-asserts the optional core.BackendCtx and
// core.BackendHealth interfaces, so the wrapper has exactly the
// optional methods of the store it wraps: a method the store lacks
// would change the evaluator's path.
type (
	timedWithCtx struct {
		*timedBackend
		timedCtx
	}
	timedWithHealth struct {
		*timedBackend
		core.BackendHealth
	}
	timedWithBoth struct {
		*timedBackend
		timedCtx
		core.BackendHealth
	}
)

// wrapBackend returns b behind a timing wrapper that records into rec.
func wrapBackend(b core.Backend, rec *recorder) core.Backend {
	t := &timedBackend{Backend: b, rec: rec}
	bc, hasCtx := b.(core.BackendCtx)
	bh, hasHealth := b.(core.BackendHealth)
	switch {
	case hasCtx && hasHealth:
		return timedWithBoth{t, timedCtx{bc, rec}, bh}
	case hasCtx:
		return timedWithCtx{t, timedCtx{bc, rec}}
	case hasHealth:
		return timedWithHealth{t, bh}
	}
	return t
}

// wireCount is what the counting dialer's connections have carried.
type wireCount struct {
	bytes  atomic.Int64 // bytes written plus bytes read by the client
	writes atomic.Int64 // Write calls by the client
}

// countingDialer dials TCP and counts the traffic of every connection
// it makes; remote.NewCluster accepts it as a remote.Dialer.
type countingDialer struct {
	remote.Dialer
	n *wireCount
}

func (d countingDialer) DialContext(ctx context.Context) (net.Conn, error) {
	c, err := d.Dialer.DialContext(ctx)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: d.n}, nil
}

type countingConn struct {
	net.Conn
	n *wireCount
}

func (c *countingConn) Read(p []byte) (int, error) {
	k, err := c.Conn.Read(p)
	c.n.bytes.Add(int64(k))
	return k, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	k, err := c.Conn.Write(p)
	c.n.bytes.Add(int64(k))
	c.n.writes.Add(1)
	return k, err
}
