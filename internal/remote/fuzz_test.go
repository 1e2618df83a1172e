package remote

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/series"
)

// fuzzDataset is the small dataset every FuzzServerDispatch run loads
// first: 40 rows of width 3 with ascending ids 0..39.
func fuzzDataset() *series.Dataset {
	ds := &series.Dataset{D: 3, Horizon: 1}
	for i := 0; i < 40; i++ {
		x := float64(i)
		ds.Inputs = append(ds.Inputs, []float64{math.Sin(x / 3), math.Cos(x / 5), x / 40})
		ds.Targets = append(ds.Targets, math.Sin(x/7))
		ds.IDs = append(ds.IDs, series.RowID(i))
	}
	return ds
}

// withTraceHeader turns a client request (opcode + body) into the
// frame the client writes: the opcode, then the version-2 trace header
// (zero trace and parent span, an untraced client), then the body.
func withTraceHeader(req []byte) []byte {
	return append([]byte{req[0], 0, 0}, req[1:]...)
}

// resetFrame encodes the Reset that loads ds, as Cluster.Load does.
func resetFrame(ds *series.Dataset) []byte {
	req := []byte{opReset}
	req = binary.AppendUvarint(req, uint64(ds.D))
	req = binary.AppendUvarint(req, uint64(ds.Horizon))
	return withTraceHeader(appendRows(req, ds.Inputs, ds.Targets, ds.IDs))
}

// FuzzServerDispatch feeds arbitrary request frames to a shard server
// that holds a valid dataset. Whatever the bytes, dispatch must not
// panic, and every response must be an opError frame or echo the
// request's opcode; a follow-up Snapshot must still be answered the
// same way, so no frame leaves the server in a state it cannot serve.
func FuzzServerDispatch(f *testing.F) {
	ds := fuzzDataset()
	rules := []*core.Rule{
		core.NewRule([]core.Interval{core.NewInterval(-0.5, 0.5), core.Wild(), core.Wild()}),
		core.NewRule([]core.Interval{core.Wild(), core.Wild(), core.Wild()}),
		core.NewRule([]core.Interval{{Lo: math.NaN(), Hi: 0.5}, core.NewInterval(0, 1), {Lo: 1, Hi: -1}}),
	}
	more := &series.Dataset{
		Inputs:  [][]float64{{0.1, 0.2, 0.3}, {math.Inf(1), math.NaN(), 0}},
		Targets: []float64{0.4, -0.4},
		IDs:     []series.RowID{40, 41},
	}
	appendReq := binary.AppendUvarint([]byte{opAppend}, uint64(ds.D))
	for _, seed := range [][]byte{
		binary.AppendUvarint([]byte{opHello}, protoVersion),
		withTraceHeader([]byte{opSnapshot}),
		resetFrame(ds),
		withTraceHeader(appendRules([]byte{opMatchBatch}, ds.D, rules)),
		withTraceHeader(appendRows(appendReq, more.Inputs, more.Targets, more.IDs)),
		withTraceHeader(appendIDs([]byte{opDelete}, []series.RowID{0, 3, 39})),
		withTraceHeader(binary.AppendUvarint([]byte{opWindow}, 25)),
		withTraceHeader([]byte{opCompact}),
		withTraceHeader([]byte{opRebalance}),
		withTraceHeader([]byte{opEpoch}),
		withTraceHeader([]byte{opLiveLen}),
		resetFrame(&series.Dataset{D: 1 << 30, Horizon: 1}),
	} {
		f.Add(seed)
	}
	reset := resetFrame(ds)
	snapshot := withTraceHeader([]byte{opSnapshot})
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, frame []byte) {
		s := NewServer(engine.Options{Shards: 2, Workers: 1})
		if resp := s.dispatch(ctx, reset); len(resp) == 0 || resp[0] != opReset {
			t.Fatalf("Reset answered %v", resp)
		}
		for _, req := range [][]byte{frame, snapshot} {
			resp := s.dispatch(ctx, req)
			if len(resp) == 0 {
				t.Fatalf("empty response to %x", req)
			}
			if resp[0] != opError && (len(req) == 0 || resp[0] != req[0]) {
				t.Fatalf("response opcode %d to request opcode %d", resp[0], req[0])
			}
		}
	})
}

// TestResetRejectsOversizedWidth: a zero-row Reset carries its width
// as a bare number, so the server must bound it before building a
// store whose per-shard cost grows with the width (FuzzServerDispatch
// found a 200-byte frame declaring 66 million lags that exhausted
// memory). The previous dataset keeps serving.
func TestResetRejectsOversizedWidth(t *testing.T) {
	s := NewServer(engine.Options{Shards: 2, Workers: 1})
	ctx := context.Background()
	if resp := s.dispatch(ctx, resetFrame(fuzzDataset())); len(resp) == 0 || resp[0] != opReset {
		t.Fatalf("Reset answered %v", resp)
	}
	for _, width := range []int{maxWidth + 1, 66965337, 1 << 30} {
		resp := s.dispatch(ctx, resetFrame(&series.Dataset{D: width, Horizon: 1}))
		if len(resp) == 0 || resp[0] != opError {
			t.Fatalf("zero-row Reset of width %d answered %v, want opError", width, resp)
		}
	}
	if got := s.eng.Data().D; got != 3 {
		t.Fatalf("a refused Reset replaced the store: D = %d, want 3", got)
	}
}
