package xsystem

import (
	"errors"
	"fmt"
	"sync"

	"xpro/internal/biosig"
	"xpro/internal/topology"
)

// This file implements the streaming execution mode: the partitioned
// pipeline runs as a network of concurrent functional cells, one
// goroutine per cell with one channel per edge — a direct software
// rendition of design rule 1 (§3.1.1): every functional cell is an
// independent asynchronous micro-unit that idles until its input data
// are available and fires as soon as they are (the paper's data-driven
// execution).
//
// Events pipeline through the network: cell k can process event i+1
// while cell k+1 still works on event i, exactly like the asynchronous
// hardware cells.

// StreamResult is the classification of one streamed segment.
type StreamResult struct {
	// Index is the 0-based position of the segment in the input stream.
	Index int
	// Label is the predicted class (0 or 1) when Err is nil.
	Label int
	Err   error
}

// streamDepth is the per-edge channel buffer: how many events may be in
// flight between two cells.
const streamDepth = 4

// stream is the running network of one Stream call.
type stream struct {
	sys     *System
	done    chan struct{} // closed on first failure
	errOnce sync.Once
	err     error
}

func (st *stream) fail(err error) {
	st.errOnce.Do(func() {
		st.err = err
		close(st.done)
	})
}

// send delivers v on ch unless the stream has failed.
func send[T any](st *stream, ch chan<- T, v T) bool {
	select {
	case ch <- v:
		return true
	case <-st.done:
		return false
	}
}

// recv receives from ch unless the stream has failed.
func recv[T any](st *stream, ch <-chan T) (T, bool) {
	select {
	case v, ok := <-ch:
		return v, ok
	case <-st.done:
		var zero T
		return zero, false
	}
}

// Stream launches the pipeline and consumes segments from in until it is
// closed. Results arrive on the returned channel in input order; the
// channel closes after the last result. A failure (e.g. a segment of the
// wrong length) is reported as one error result, after which the stream
// shuts down.
func (s *System) Stream(in <-chan biosig.Segment) <-chan StreamResult {
	results := make(chan StreamResult, streamDepth)
	st := &stream{sys: s, done: make(chan struct{})}
	prog := s.prog()
	if prog == nil {
		go func() {
			defer close(results)
			if _, ok := <-in; ok {
				results <- StreamResult{Err: errors.New("xsystem: cost-analysis-only system has no classifier")}
			}
		}()
		return results
	}

	// Each event carries its own scratch from the program's free list;
	// edges carry only the token that their producer has written its
	// output (and its crossing payloads) there. The scratch goes back
	// when every cell and the collector are done with it.
	g := s.Graph
	edgeCh := make([]chan struct{}, len(g.Edges))
	for i := range edgeCh {
		edgeCh[i] = make(chan struct{}, streamDepth)
	}
	eventCh := make([]chan *scratch, len(g.Cells))
	for i := range eventCh {
		eventCh[i] = make(chan *scratch, streamDepth)
	}
	inEdgeIdx := make([][]int, len(g.Cells))
	outEdgeIdx := make([][]int, len(g.Cells))
	for ei, e := range g.Edges {
		if e.From != topology.SourceID {
			outEdgeIdx[e.From] = append(outEdgeIdx[e.From], ei)
		}
		inEdgeIdx[e.To] = append(inEdgeIdx[e.To], ei)
	}
	outCh := make(chan *scratch, streamDepth)
	done := func(sc *scratch) {
		if sc.pending.Add(-1) == 0 {
			prog.release(sc)
		}
	}

	// One goroutine per functional cell (design rule 1).
	for i := range prog.steps {
		id := prog.steps[i].cell
		go func() {
			if id == g.Output {
				defer close(outCh)
			}
			ins := g.InEdges(id)
			for {
				sc, ok := recv(st, eventCh[id])
				if !ok {
					return
				}
				for k, ei := range inEdgeIdx[id] {
					if ins[k].From == topology.SourceID {
						continue // carried by the event
					}
					if _, ok := recv(st, edgeCh[ei]); !ok {
						return
					}
				}
				if err := prog.exec(sc, i, &sc.ev); err != nil {
					st.fail(fmt.Errorf("xsystem: cell %s: %w", prog.steps[i].name, err))
					return
				}
				for _, ei := range outEdgeIdx[id] {
					if !send(st, edgeCh[ei], struct{}{}) {
						return
					}
				}
				if id == g.Output {
					if !send(st, outCh, sc) {
						return
					}
				}
				done(sc)
			}
		}()
	}

	// Distributor: one event envelope per cell per segment.
	streamed := s.metrics().Counter("xpro_stream_events_total",
		"Segments accepted by the streaming pipeline.")
	count := make(chan int, 1)
	go func() {
		n := 0
		for seg := range in {
			if len(seg.Samples) != g.SegLen {
				st.fail(fmt.Errorf("xsystem: segment %d has length %d, engine built for %d", n, len(seg.Samples), g.SegLen))
				break
			}
			sc := prog.acquire()
			prog.load(&sc.ev, seg.Samples)
			sc.pending.Store(int32(len(prog.steps) + 1))
			delivered := true
			for i := range eventCh {
				if !send(st, eventCh[i], sc) {
					delivered = false
					break
				}
			}
			if !delivered {
				break
			}
			streamed.Inc()
			n++
		}
		count <- n
		for i := range eventCh {
			close(eventCh[i])
		}
	}()

	// Collector: convert fused scores to labels, in order.
	go func() {
		defer close(results)
		idx := 0
		for {
			sc, ok := <-outCh
			if !ok {
				break
			}
			label := 0
			if score, err := prog.score(sc); err == nil && score >= 0 {
				label = 1
			}
			done(sc)
			results <- StreamResult{Index: idx, Label: label}
			idx++
		}
		if err := st.err; err != nil {
			results <- StreamResult{Index: idx, Err: err}
		}
		<-count // distributor has finished
	}()
	return results
}
