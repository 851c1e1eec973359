package partition

import (
	"math"
	"testing"

	"xpro/internal/telemetry"
)

// snapshotValue returns one series' counter value (0 when absent).
func snapshotValue(reg *telemetry.Registry, name string) float64 {
	for _, m := range reg.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

func TestGenerateMetrics(t *testing.T) {
	pr := testProblem(t)
	reg := telemetry.NewRegistry()
	pr.Metrics = reg
	defer func() { pr.Metrics = nil }()

	delayOf := func(p Placement) float64 {
		// A coarse additive stand-in: back-end work dominates.
		d := 0.0
		for _, id := range p.AggregatorCells() {
			d += 1e-6 * float64(1+int(id))
		}
		return d
	}
	res, err := pr.Generate(delayOf, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement == nil {
		t.Fatal("no placement generated")
	}
	if got := snapshotValue(reg, "xpro_generate_total"); got != 1 {
		t.Errorf("generate_total = %v, want 1", got)
	}
	if got := snapshotValue(reg, "xpro_generate_mincut_runs_total"); got < float64(len(lambdaLadder)) {
		t.Errorf("mincut_runs_total = %v, want ≥ %d", got, len(lambdaLadder))
	}
	if got := snapshotValue(reg, "xpro_generate_candidates_total"); got < 1 {
		t.Errorf("candidates_total = %v, want ≥ 1", got)
	}
	if res.Fallback {
		t.Fatal("infinite delay limit must not fall back")
	}
	if got := snapshotValue(reg, "xpro_generate_fallback_total"); got != 0 {
		t.Errorf("fallback_total = %v, want 0", got)
	}
	// The duration histogram records exactly one generator run.
	for _, m := range reg.Snapshot() {
		if m.Name == "xpro_generate_seconds" {
			if m.Count != 1 {
				t.Errorf("generate_seconds count = %d, want 1", m.Count)
			}
			return
		}
	}
	t.Error("xpro_generate_seconds histogram not registered")
}

// A run that no cut can satisfy, the single-end engines included, is
// counted as infeasible, so every ladder of min-cut solves is accounted
// for by a completed or an infeasible run.
func TestGenerateInfeasibleCounted(t *testing.T) {
	pr := testProblem(t)
	reg := telemetry.NewRegistry()
	pr.Metrics = reg
	defer func() { pr.Metrics = nil }()

	tooSlow := func(Placement) float64 { return 1 }
	if _, err := pr.Generate(tooSlow, 0.5); err == nil {
		t.Fatal("a limit no placement meets must be an error")
	}
	if _, err := pr.Generate(tooSlow, 2); err != nil {
		t.Fatal(err)
	}
	total := snapshotValue(reg, "xpro_generate_total")
	infeasible := snapshotValue(reg, "xpro_generate_infeasible_total")
	if total != 1 || infeasible != 1 {
		t.Fatalf("generate_total = %v, infeasible_total = %v, want 1 and 1", total, infeasible)
	}
	if got, want := snapshotValue(reg, "xpro_generate_mincut_runs_total"), float64(len(lambdaLadder))*(total+infeasible); got != want {
		t.Fatalf("mincut_runs_total = %v, want ladder length × runs = %v", got, want)
	}
}
