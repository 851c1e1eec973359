// Command perfbench is the repository benchmark: it builds a named
// wearable-cohort workload from a seed, drives it through the public
// xpro API, checks every output, and prints end-to-end metrics (or, with
// -trace 1, per-layer metrics) with the result object as the last line.
//
//	go run . -workload cohort-clean -seed 1 -seconds 10 -trace 0
//
// See README.md for the workloads, the metrics and how to add a workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// latencyLimitMs is the open-loop latency limit on p90: C1's event
// period (25 events/s). An aggregator that answers later than one
// period falls behind its sensor.
const latencyLimitMs = 40.0

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eDefs are the gated end-to-end metrics every workload prints with
// -trace 0, in BENCHMARK.json order.
var e2eDefs = []metricDef{
	{"setup_s", "s"},
	{"throughput_eps", "ev/s"},
	{"allocs_per_event", "count"},
	{"peak_heap_mb", "MB"},
	{"answered_ratio", "ratio"},
	{"full_ratio", "ratio"},
	{"sensor_energy_uj_per_event", "uJ"},
	{"label_accuracy", "ratio"},
}

// ungatedDefs are end-to-end figures every run measures and prints but
// the benchmark does not gate (see README.md): the latencies follow the
// host's run-to-run CPU speed by more than the largest allowed bound,
// and cpu_us_per_event is the open-loop view of the cost the gated
// closed-loop throughput_eps already measures. The traced run reports
// them as ungated.<name>.
var ungatedDefs = []metricDef{
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p50_ms.peak", "ms"},
	{"latency_p90_ms.peak", "ms"},
	{"cpu_us_per_event", "us"},
}

// baseLayerDefs are the per-layer metrics every workload prints with
// -trace 1; layerDefs appends the ungated end-to-end figures and one
// tracing-overhead metric per end-to-end figure.
var baseLayerDefs = []metricDef{
	{"setup.train_s", "s"},
	{"setup.engine_build_ms", "ms"},
	{"setup.plan_tiers_ms", "ms"},
	{"fleet.submit_us", "us"},
	{"fleet.sojourn_us.p50", "us"},
	{"fleet.sojourn_us.p90", "us"},
	{"fleet.worker_busy_ratio", "ratio"},
	{"fleet.shard_skew", "ratio"},
	{"fleet.serial_eps", "ev/s"},
	{"fleet.sustainable_eps", "ev/s"},
	{"fleet.capacity_raw_eps", "ev/s"},
	{"host.ref_steps_per_s", "1/s"},
	{"admit.shed_ratio.batch", "ratio"},
	{"admit.shed_ratio.interactive", "ratio"},
	{"admit.shed_ratio.alert", "ratio"},
	{"admit.brownout_s", "s"},
	{"engine.classify_us", "us"},
	{"engine.self_us", "us"},
	{"engine.allocs_per_call", "count"},
	{"engine.self_allocs", "count"},
	{"engine.sync_classify_allocs", "count"},
	{"engine.trace_spans_per_event", "count"},
	{"engine.quality_rejected_ratio", "ratio"},
	{"engine.slo_observed_ratio", "ratio"},
	{"xsystem.classify_us", "us"},
	{"xsystem.classify_allocs", "count"},
	{"xsystem.walk2_us", "us"},
	{"xsystem.walk2_allocs", "count"},
	{"xsystem.walkk_us", "us"},
	{"xsystem.walkk_allocs", "count"},
	{"xsystem.price_us", "us"},
	{"topology.transfer_groups_us", "us"},
	{"topology.transfer_groups_allocs", "count"},
	{"cell.dwt.sensor_us", "us"},
	{"cell.feature.sensor_us", "us"},
	{"cell.std-stage.sensor_us", "us"},
	{"cell.svm.sensor_us", "us"},
	{"cell.fusion_us", "us"},
	{"cell.aggregator_us", "us"},
	{"dwt.decompose_fixed_us", "us"},
	{"dwt.decompose_fixed_allocs", "count"},
	{"dwt.decompose_us", "us"},
	{"dwt.decompose_allocs", "count"},
	{"stats.compute_all_fixed_us", "us"},
	{"stats.compute_all_fixed_allocs", "count"},
	{"stats.compute_all_us", "us"},
	{"stats.compute_all_allocs", "count"},
	{"svm.decision_fixed_us", "us"},
	{"svm.decision_fixed_allocs", "count"},
	{"svm.decision_us", "us"},
	{"svm.decision_allocs", "count"},
	{"transport.retries_per_event", "count"},
	{"transport.lost_per_event", "count"},
	{"transport.corrupt_frames_per_event", "count"},
	{"transport.imputed_values_per_event", "count"},
	{"transport.deadline_exceeded_ratio", "ratio"},
	{"adaptive.evals_per_event", "count"},
	{"adaptive.generate_per_event", "count"},
	{"adaptive.mincut_per_generate", "count"},
	{"adaptive.useful_ratio", "ratio"},
	{"adaptive.rollbacks", "count"},
	{"partition.generate_ms", "ms"},
	{"maxflow.mincut_us", "us"},
	{"partition.multiway_solve_ms", "ms"},
	{"tier.classify_us", "us"},
	{"tier.throughput_eps", "ev/s"},
	{"tier.full_height_ratio", "ratio"},
	{"tier.collapses", "count"},
	{"tier.recoveries", "count"},
	{"tier.probes", "count"},
	{"tier.hop_retries_per_event", "count"},
	{"recovery.journal_records_per_event", "count"},
	{"recovery.checkpoint_us", "us"},
	{"recovery.checkpoint_bytes", "bytes"},
	{"recovery.recover_us", "us"},
	{"recovery.store_peak_bytes", "bytes"},
	{"telemetry.slo_report_us", "us"},
	{"telemetry.metrics_text_us", "us"},
	{"runtime.gc_cycles_per_kevent", "count/kevent"},
	{"runtime.gc_pause_p99_us", "us"},
	{"loadgen.lag_ms.p90", "ms"},
	{"loadgen.lag_ms.max", "ms"},
}

// overheadPrefix names the per-layer tracing-overhead metrics: the
// traced run's end-to-end value minus the untraced run's.
const overheadPrefix = "overhead."

// allE2E lists the gated and the ungated end-to-end figures.
func allE2E() []metricDef {
	return append(append([]metricDef(nil), e2eDefs...), ungatedDefs...)
}

func layerDefs() []metricDef {
	out := append([]metricDef(nil), baseLayerDefs...)
	for _, d := range ungatedDefs {
		out = append(out, metricDef{"ungated." + d.name, d.unit})
	}
	for _, d := range allE2E() {
		out = append(out, metricDef{overheadPrefix + d.name, d.unit})
	}
	return out
}

// opts are one run's command-line settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
}

// result is what a workload run produces.
type result struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	// notes are human-readable lines printed above the result object.
	notes []string
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named benchmark workload.
type workload struct {
	name string
	// why records why the workload exists: the layers it stresses and
	// the ones it bypasses.
	why string
	run func(o opts) (*result, error)
}

var workloads = []workload{
	{"cohort-clean", "open loop, then closed-loop capacity; fleet only, no faults: kernels, cells, engine wrapper and pool; the control for faults, re-cut, tiers and recovery", runClean},
	{"cohort-faults", "open loop, then closed-loop capacity; faulted resilient subjects with adaptive re-cut, admission and journaling on the event path; its traced run adds the 3-tier storm shape", runFaults},
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced pass and prints per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	flag.Parse()
	o.trace = traceFlag == 1
	if err := run(o, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o opts, traceFlag int) error {
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if !(o.seconds >= 1) || math.IsInf(o.seconds, 0) {
		return fmt.Errorf("-seconds must be at least 1, got %v", o.seconds)
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		var names []string
		for _, x := range workloads {
			names = append(names, x.name)
		}
		return fmt.Errorf("unknown -workload %q (have %s)", o.workload, strings.Join(names, ", "))
	}
	fmt.Printf("workload %s seed %d seconds %g trace %d (CPUs %d, GOMAXPROCS %d)\n", w.name, o.seed, o.seconds, traceFlag, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("why: %s\n", w.why)
	r, err := w.run(o)
	if err != nil {
		return err
	}
	defs := e2eDefs
	values := r.e2e
	if o.trace {
		defs = layerDefs()
		values = r.layer
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	if !o.trace {
		for _, d := range ungatedDefs {
			fmt.Printf("  %-36s %14.6g %s (not gated)\n", d.name, r.e2e[d.name], d.unit)
		}
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return fmt.Errorf("internal: workload %s did not report %s", w.name, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Printf("  %-36s %14.6g %s\n", d.name, v, d.unit)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": r.attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// channelSeed is the seed of subject i's fault schedule. It depends on
// the subject alone, not on the run seed: the channel a subject sees is
// part of the workload's definition, while the run seed varies what the
// subjects send (arrival phases, jitter, segments, priorities). Fault
// plans differ between subjects but not between runs, so a run-to-run
// spread measures the program, not which outage a seed happened to draw.
func channelSeed(i int) int64 {
	return rand.New(rand.NewSource(int64(i)*7919 + 17)).Int63()
}

// errCheck marks an output check that failed: the run prints no numbers.
var errCheck = errors.New("output check failed")

func checkFailed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
