package main

import (
	"fmt"
	"os"
	"path/filepath"

	"cartcc/internal/stats"
	"cartcc/internal/trace"
)

// Layer tracing. The traced run records a span around every call the
// benchmark makes into a layer's public functions, on the calling rank,
// with the op index as the id the spans of one op share (set-up spans
// carry id 0). Spans are timed from outside the library, so a span's
// layer is the layer of the function called: cart.Run's span includes the
// mpi, datatype and transport work beneath it, which the registry counters
// split further. An op's split is the spans that lie inside its interval;
// what no span covers is the benchmark's own work between calls (filling
// and checking buffers, reading the clock), reported as the bench layer.

type fnID uint8

const (
	fnSpawn    fnID = iota // mpi.Run / mpi.RunTransport until the rank starts
	fnConnect              // first mpi.Barrier of a traced set-up (dials a tcp self-link)
	fnCreate               // cart.NeighborhoodCreate
	fnInit                 // cart.AlltoallInit / AllgatherInit, stencil.NewExchanger2D
	fnBarrier              // mpi.Barrier before an op
	fnRun                  // cart.Run
	fnStart                // cart.Start
	fnWait                 // cart.Future.Wait
	fnExchange             // stencil.ExchangeGrid2D
	fnKernel               // stencil.Jacobi9
	numFn
)

type layerID uint8

const (
	layerMPI layerID = iota
	layerTransport
	layerCart
	layerStencil
	numLayers
)

var layerNames = [numLayers]string{"mpi", "transport", "cart", "stencil"}

var fnInfo = [numFn]struct {
	name  string
	layer layerID
}{
	fnSpawn:    {"mpi.Run", layerMPI},
	fnConnect:  {"mpi.Barrier(connect)", layerTransport},
	fnCreate:   {"cart.NeighborhoodCreate", layerCart},
	fnInit:     {"cart.Init", layerCart},
	fnBarrier:  {"mpi.Barrier", layerMPI},
	fnRun:      {"cart.Run", layerCart},
	fnStart:    {"cart.Start", layerCart},
	fnWait:     {"cart.Future.Wait", layerCart},
	fnExchange: {"stencil.ExchangeGrid2D", layerStencil},
	fnKernel:   {"stencil.Jacobi9", layerStencil},
}

// unattributedTolerance is the largest share of the traced op time that
// may lie outside every layer span. Above it, the spans no longer account
// for the op and the traced run fails.
const unattributedTolerance = 0.05

// spanKeep is the number of op spans per rank written to the Chrome trace:
// the first ones recorded (set-up spans are always written). spanRing is
// the number of recent spans the per-op split searches; an op never
// contains more than a few.
const (
	spanKeep = 1024
	spanRing = 16
)

type spanRec struct {
	fn         fnID
	op         int
	start, end int64
}

// rankTracer is one rank's span log and running layer split. Recording
// never allocates: the ring is sized up front.
type rankTracer struct {
	on     bool // record op spans (off during warm-up)
	setups []spanRec
	kept   []spanRec
	ring   [spanRing]spanRec
	n      int

	fnNs    [numFn]int64
	fnCalls [numFn]int64
	// Over the ops recorded while on: total op time, and the part of it
	// each layer's spans cover.
	ops, opNs int64
	inOp      [numLayers]int64
}

func newRankTracer() *rankTracer {
	return &rankTracer{kept: make([]spanRec, 0, spanKeep)}
}

func (t *rankTracer) setup(f fnID, start, end int64) {
	t.setups = append(t.setups, spanRec{fn: f, start: start, end: end})
}

func (t *rankTracer) span(f fnID, op int, start, end int64) {
	if !t.on {
		return
	}
	s := spanRec{f, op, start, end}
	t.ring[t.n%spanRing] = s
	t.n++
	if len(t.kept) < cap(t.kept) {
		t.kept = append(t.kept, s)
	}
	t.fnNs[f] += end - start
	t.fnCalls[f]++
}

// op closes one op's interval. A rank's calls are sequential, so its
// spans are disjoint and in time order: walking back from the newest span
// finds exactly the spans inside the interval.
func (t *rankTracer) op(start, end int64) {
	if !t.on {
		return
	}
	t.ops++
	t.opNs += end - start
	for k := t.n - 1; k >= 0 && k >= t.n-spanRing; k-- {
		s := &t.ring[k%spanRing]
		if s.start < start {
			break
		}
		if s.end <= end {
			t.inOp[fnInfo[s.fn].layer] += s.end - s.start
		}
	}
}

// spans returns the set-up spans and the retained op spans, oldest first.
func (t *rankTracer) spans() []spanRec {
	return append(append([]spanRec(nil), t.setups...), t.kept...)
}

// meanNs returns the mean duration of the calls to f across ranks.
func meanNs(ranks []*rankCtx, f fnID) float64 {
	var ns, calls int64
	for _, rc := range ranks {
		ns += rc.tr.fnNs[f]
		calls += rc.tr.fnCalls[f]
	}
	return ratio(float64(ns), float64(calls))
}

// writeChrome writes the traced world's spans as Chrome trace_event JSON
// (one track per rank, the op index as each span's tag), which carttrace
// and ui.perfetto.dev open.
func writeChrome(path, title string, ranks []*rankCtx) error {
	var tl trace.Timeline
	tl.SetProcess(1, title)
	for _, rc := range ranks {
		tr := trace.Track{Pid: 1, Tid: rc.rank}
		tl.SetThread(tr, fmt.Sprintf("rank %d", rc.rank))
		for _, s := range rc.tr.spans() {
			tl.AddSpan(trace.Span{
				Track: tr, Name: fnInfo[s.fn].name, Cat: layerNames[fnInfo[s.fn].layer],
				StartNs: s.start, DurNs: s.end - s.start, Peer: rc.rank, Tag: s.op,
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, &tl); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// flightP50 returns the median send-post → recv-done time of the messages
// in the flight recorder's tails. Messages of one (source, destination,
// tag) stream never overtake each other, and the world is quiescent when
// the tails are read, so the stream's k-th newest send matched its k-th
// newest receive.
func flightP50(tails [][]trace.FlightEvent) float64 {
	type stream struct {
		src, dst int32
		tag      int64
	}
	sends := map[stream][]int64{}
	dones := map[stream][]int64{}
	for _, evs := range tails {
		for _, e := range evs {
			switch e.Kind {
			case trace.FlightSendPost:
				k := stream{e.Rank, e.Peer, e.Tag}
				sends[k] = append(sends[k], e.AtNs)
			case trace.FlightRecvDone:
				k := stream{e.Peer, e.Rank, e.Tag}
				dones[k] = append(dones[k], e.AtNs)
			}
		}
	}
	var xs []float64
	for k, ds := range dones {
		ss := sends[k]
		for i := 1; i <= min(len(ss), len(ds)); i++ {
			if d := ds[len(ds)-i] - ss[len(ss)-i]; d >= 0 {
				xs = append(xs, float64(d))
			}
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return stats.Median(xs)
}

// ratio is a/b, or 0 when b is 0 (a rate over no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
