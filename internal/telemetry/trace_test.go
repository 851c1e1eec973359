package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTracerRingWrap(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Add(Span{Name: fmt.Sprintf("cell%d", i), Start: time.Now()})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tr.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	spans := tr.Spans()
	for i, s := range spans {
		want := fmt.Sprintf("cell%d", 6+i) // oldest retained first
		if s.Name != want {
			t.Errorf("span %d = %s, want %s", i, s.Name, want)
		}
		if s.Seq != uint64(7+i) {
			t.Errorf("span %d seq = %d, want %d", i, s.Seq, 7+i)
		}
	}
}

func TestTracerPartialFill(t *testing.T) {
	tr := NewTracer(8)
	tr.Add(Span{Name: "a"})
	tr.Add(Span{Name: "b"})
	if got := tr.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := tr.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("Spans = %+v", spans)
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Recorded() != 0 {
		t.Fatal("Reset must clear the ring")
	}
}

// AddAll records what consecutive Adds would, wrapping the ring the
// same way, and leaves the caller's slice untouched.
func TestTracerAddAllMatchesAdd(t *testing.T) {
	one, all := NewTracer(5), NewTracer(5)
	for round := 0; round < 3; round++ {
		batch := make([]Span, 3)
		for i := range batch {
			batch[i] = Span{Event: uint64(round), Name: fmt.Sprintf("cell%d.%d", round, i), End: "sensor"}
			one.Add(batch[i])
		}
		all.AddAll(batch)
		for _, s := range batch {
			if s.Seq != 0 {
				t.Fatalf("AddAll wrote Seq %d into the caller's slice", s.Seq)
			}
		}
	}
	all.AddAll(nil)
	if a, b := fmt.Sprint(one.Spans()), fmt.Sprint(all.Spans()); a != b {
		t.Fatalf("AddAll retained %s, Add retained %s", b, a)
	}
	if one.Recorded() != all.Recorded() || one.Dropped() != all.Dropped() {
		t.Fatalf("recorded/dropped %d/%d vs %d/%d", all.Recorded(), all.Dropped(), one.Recorded(), one.Dropped())
	}
	var nilTracer *Tracer
	nilTracer.AddAll([]Span{{Name: "x"}})
}

// One AddAll's spans stay contiguous in sequence order however other
// goroutines record.
func TestTracerAddAllContiguous(t *testing.T) {
	tr := NewTracer(4096)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				batch := []Span{{Event: uint64(g), Name: "a"}, {Event: uint64(g), Name: "b"}, {Event: uint64(g), Name: "c"}}
				tr.AddAll(batch)
				tr.Add(Span{Event: 99})
			}
		}(g)
	}
	wg.Wait()
	spans := tr.Spans()
	for i := 0; i < len(spans); i++ {
		if spans[i].Name != "a" {
			continue
		}
		if i+2 >= len(spans) || spans[i+1].Name != "b" || spans[i+2].Name != "c" ||
			spans[i+1].Event != spans[i].Event || spans[i+2].Event != spans[i].Event {
			t.Fatalf("batch starting at %d interleaved: %+v", i, spans[i:min(i+3, len(spans))])
		}
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(128)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				ev := tr.NextEvent()
				tr.Add(Span{Name: "cell", Event: ev})
			}
		}()
	}
	wg.Wait()
	if got := tr.Recorded(); got != 4000 {
		t.Fatalf("Recorded = %d, want 4000", got)
	}
	if got := tr.Len(); got != 128 {
		t.Fatalf("Len = %d, want 128", got)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(16)
	tr.Add(Span{
		Event: 1, Name: "dwt1", End: "sensor",
		Start: time.Unix(0, 0).UTC(), Wall: 1500 * time.Nanosecond,
		EnergyJoules: 2e-9, DelaySeconds: 3e-6,
	})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Capacity int    `json:"capacity"`
		Recorded uint64 `json:"recorded"`
		Dropped  uint64 `json:"dropped"`
		Spans    []Span `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if doc.Capacity != 16 || doc.Recorded != 1 || doc.Dropped != 0 {
		t.Errorf("header = %+v", doc)
	}
	if len(doc.Spans) != 1 {
		t.Fatalf("spans = %+v", doc.Spans)
	}
	s := doc.Spans[0]
	if s.Name != "dwt1" || s.End != "sensor" || s.Wall != 1500*time.Nanosecond ||
		s.EnergyJoules != 2e-9 || s.DelaySeconds != 3e-6 {
		t.Errorf("span round-trip = %+v", s)
	}
}

func TestTracerWriteJSONNil(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if spans, ok := doc["spans"].([]any); !ok || len(spans) != 0 {
		t.Errorf("nil tracer spans = %v, want []", doc["spans"])
	}
}

func TestTracerWriteJSONEmpty(t *testing.T) {
	// An empty (but non-nil) tracer must also serialize spans as [],
	// never null — JSON consumers iterate the array unconditionally.
	var buf bytes.Buffer
	if err := NewTracer(8).WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if spans, ok := doc["spans"].([]any); !ok || len(spans) != 0 {
		t.Errorf("empty tracer spans = %v, want []", doc["spans"])
	}
}

func TestDefaultTracerInstall(t *testing.T) {
	if DefaultTracer() != nil {
		t.Skip("another test installed a default tracer")
	}
	tr := NewTracer(4)
	SetDefaultTracer(tr)
	defer SetDefaultTracer(nil)
	if DefaultTracer() != tr {
		t.Fatal("DefaultTracer did not return the installed tracer")
	}
}
