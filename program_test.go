package xpro

import (
	"context"
	"reflect"
	"testing"
)

// The cell program's scratch free list is shared by every goroutine
// classifying through one engine: pooled batches, and a fleet whose
// subjects all run one engine on several workers, give the sequential
// labels. Run it under -race -cpu 1,4.
func TestProgramScratchConcurrent(t *testing.T) {
	e, err := New(Config{Case: "E1"})
	if err != nil {
		t.Fatal(err)
	}
	segments := segsOf(e, 48)
	want := make([]int, len(segments))
	for i, s := range segments {
		if want[i], err = e.Classify(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := e.ClassifyBatchParallel(context.Background(), segments, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d diverged from sequential:\n got %v\nwant %v", workers, got, want)
		}
	}

	subjects := []string{"a", "b", "c", "d"}
	engines := map[string]*Engine{}
	for _, name := range subjects {
		engines[name] = e
	}
	n, err := NewNetwork(engines)
	if err != nil {
		t.Fatal(err)
	}
	f, err := n.Serve(ServeOptions{Workers: 4, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var reqs []FleetRequest
	for _, s := range segments {
		for _, name := range subjects {
			reqs = append(reqs, FleetRequest{Subject: name, Samples: s})
		}
	}
	got := map[string][]int{}
	for i, r := range f.ClassifyBatch(context.Background(), reqs) {
		if r.Err != nil {
			t.Fatalf("request %d (%s): %v", i, r.Subject, r.Err)
		}
		got[r.Subject] = append(got[r.Subject], r.Result.Label)
	}
	for _, name := range subjects {
		if !reflect.DeepEqual(got[name], want) {
			t.Fatalf("fleet subject %s diverged from sequential:\n got %v\nwant %v", name, got[name], want)
		}
	}
}

// The engine wrapper adds no allocation to the allocation-free cell
// program: a traced, observed ClassifyResultContext on E1 allocates
// nothing per event in steady state (162 allocations before the
// program was compiled).
func TestEngineClassifyAllocs(t *testing.T) {
	e, err := New(Config{Case: "E1"})
	if err != nil {
		t.Fatal(err)
	}
	segments := segsOf(e, 64)
	ctx := context.Background()
	i := 0
	classify := func() {
		if _, err := e.ClassifyResultContext(ctx, segments[i%len(segments)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	classify()
	if n := testing.AllocsPerRun(300, classify); n > 0 {
		t.Errorf("ClassifyResultContext allocates %v times per event, want 0", n)
	}
}
