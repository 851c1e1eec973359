package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"xpro/internal/biosig"
	"xpro/internal/dwt"
	"xpro/internal/ensemble"
	"xpro/internal/faults"
	"xpro/internal/fixed"
	"xpro/internal/partition"
	"xpro/internal/stats"
	"xpro/internal/telemetry"
	"xpro/internal/wireless"
	"xpro/internal/xsystem"
)

// replayPerCase caps how many distinct segments per case the layer
// replay runs through every layer.
const replayPerCase = 40

// segmentsUsed lists, per case, the first distinct test segments the
// phases' events carried.
func segmentsUsed(subs []*subject, ps ...*phase) map[*caseData][]int {
	out := map[*caseData][]int{}
	seen := map[*caseData]map[int]bool{}
	for _, p := range ps {
		for _, ev := range p.events {
			c := subs[ev.subj].c
			if seen[c] == nil {
				seen[c] = map[int]bool{}
			}
			if len(out[c]) < replayPerCase && !seen[c][int(ev.seg)] {
				seen[c][int(ev.seg)] = true
				out[c] = append(out[c], int(ev.seg))
			}
		}
	}
	return out
}

// layerTimer accumulates per-call wall times and allocations per layer.
type layerTimer struct {
	us     map[string][]float64
	allocs map[string]uint64
	calls  map[string]int
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// measure times fn on every index in [0, n) and counts its allocations
// over the whole loop.
func (lt *layerTimer) measure(name string, n int, fn func(i int) error) error {
	a0 := mallocs()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return fmt.Errorf("layer replay %s: %w", name, err)
		}
		lt.us[name] = append(lt.us[name], us(time.Since(t0)))
	}
	lt.allocs[name] += mallocs() - a0
	lt.calls[name] += n
	return nil
}

func (lt *layerTimer) fill(res *result, name, usKey, allocKey string) {
	if len(lt.us[name]) == 0 {
		return
	}
	if usKey != "" {
		res.layer[usKey] = median(lt.us[name])
	}
	if allocKey != "" {
		res.layer[allocKey] = float64(lt.allocs[name]) / float64(lt.calls[name])
	}
}

// counterValue reads one series of the process-wide registry, where the
// lab's systems record.
func counterValue(name string) float64 {
	for _, m := range telemetry.Default().Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// layerReplay runs the workload's segments again through each layer
// underneath the public API and times every layer from outside: the
// plain engine (with the program's own per-cell spans), the lab's
// cross-end system, the 2-end and k-tier walks, pricing, the kernels,
// and the planners.
func layerReplay(res *result, e *env, segs map[*caseData][]int) error {
	lt := &layerTimer{us: map[string][]float64{}, allocs: map[string]uint64{}, calls: map[string]int{}}
	ctx := context.Background()
	cellUS := map[string]float64{}
	var selfUS []float64
	events := 0
	mincut0 := counterValue("xpro_generate_mincut_runs_total")
	var genMs, solveMs, planMs []float64
	for _, c := range e.cases {
		idx := segs[c]
		if len(idx) == 0 {
			continue
		}
		if c.lab == nil {
			return fmt.Errorf("layer replay: no lab reference for %s", c.sym)
		}
		n := len(idx)
		samples := func(i int) []float64 { return c.test[idx[i]].Samples }
		bseg := func(i int) biosig.Segment { return biosig.Segment{Samples: samples(i)} }
		sys := c.lab.CrossEnd

		// Planners: the generator, the multiway solver, PlanTiers.
		a := c.lab.InAggregator
		limit := a.DelayPerEvent().Total()
		if d := c.lab.InSensor.DelayPerEvent().Total(); d < limit {
			limit = d
		}
		t0 := time.Now()
		if _, err := a.Problem().Generate(func(p partition.Placement) float64 { return a.DelayOf(p).Total() }, limit); err != nil {
			return err
		}
		genMs = append(genMs, ms(time.Since(t0)))
		tiers, hops := partition.DefaultChain(3, sys.Link, wireless.Model3())
		ts, err := xsystem.NewTiered(sys, tiers, hops)
		if err != nil {
			return err
		}
		t0 = time.Now()
		sol, err := ts.Tiered.Solve()
		if err != nil {
			return err
		}
		solveMs = append(solveMs, ms(time.Since(t0)))
		if ts, err = ts.WithTierPlacement(sol.Placement); err != nil {
			return err
		}
		t0 = time.Now()
		if _, err := c.plain.PlanTiers(3); err != nil {
			return err
		}
		planMs = append(planMs, ms(time.Since(t0)))

		// Engine wrapper, with the program's per-cell spans as children.
		role := map[string]string{}
		for _, p := range c.plain.Placement() {
			role[p.Name] = p.Role
		}
		obs := c.plain.Observer()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := c.plain.ClassifyResultContext(ctx, samples(i)); err != nil {
				return err
			}
			t1 := time.Now()
			spans := obs.Spans()
			last := spans[len(spans)-1].Event
			var kids []interval
			for _, s := range spans {
				if s.Event != last {
					continue
				}
				switch {
				case s.End == "event":
					kids = append(kids, interval{s.Start, s.Start.Add(s.Wall)})
				case role[s.Cell] == "fusion":
					cellUS["cell.fusion_us"] += us(s.Wall)
				case s.End == "sensor":
					cellUS["cell."+role[s.Cell]+".sensor_us"] += us(s.Wall)
				}
				if s.End == "aggregator" {
					cellUS["cell.aggregator_us"] += us(s.Wall)
				}
			}
			selfUS = append(selfUS, us(selfTime(interval{t0, t1}, kids)))
			events++
		}
		steps := []struct {
			name string
			fn   func(i int) error
		}{
			{"engine", func(i int) error { _, err := c.plain.ClassifyResultContext(ctx, samples(i)); return err }},
			{"engine_sync", func(i int) error { _, err := c.plain.Classify(samples(i)); return err }},
			{"classify", func(i int) error { _, err := sys.Classify(bseg(i)); return err }},
			{"walk2", func(i int) error {
				_, err := sys.ClassifyOver(bseg(i), &xsystem.ResilientOptions{Policy: faults.DefaultPolicy()})
				return err
			}},
			{"walkk", func(i int) error {
				_, err := ts.ClassifyOver(bseg(i), &xsystem.TieredOptions{Policy: faults.DefaultPolicy()})
				return err
			}},
			{"price", func(int) error { sys.DelayPerEvent(); sys.EnergyPerEvent(); return nil }},
			{"transfer_groups", func(int) error { c.lab.Inst.Graph.TransferGroups(); return nil }},
		}
		for _, s := range steps {
			if err := lt.measure(s.name, n, s.fn); err != nil {
				return err
			}
		}

		// Kernels on the same segments, inputs prepared outside the timing.
		padded := make([][]float64, n)
		pfix := make([][]fixed.Num, n)
		rfix := make([][]fixed.Num, n)
		type baseIn struct {
			x  [][]float64
			xf [][]fixed.Num
		}
		bases := make([]baseIn, n)
		ens := c.lab.Inst.Ens
		for i := 0; i < n; i++ {
			padded[i] = bseg(i).PadTo(ensemble.DWTInputLen)
			pfix[i] = fixed.FromSlice(padded[i])
			rfix[i] = fixed.FromSlice(samples(i))
			full, err := ensemble.ExtractVector(bseg(i))
			if err != nil {
				return err
			}
			norm := ens.Normalize(full)
			for _, b := range ens.Bases {
				x := make([]float64, len(b.Subset))
				for j, fs := range b.Subset {
					x[j] = norm[ensemble.SpecIndex(fs)]
				}
				bases[i].x = append(bases[i].x, x)
				bases[i].xf = append(bases[i].xf, fixed.FromSlice(x))
			}
		}
		kernels := []struct {
			name string
			fn   func(i int) error
		}{
			{"dwt", func(i int) error { _, err := dwt.Decompose(dwt.Haar, padded[i], ensemble.DWTLevels); return err }},
			{"dwt_fixed", func(i int) error { _, _, err := dwt.DecomposeFixed(pfix[i], ensemble.DWTLevels); return err }},
			{"stats", func(i int) error { stats.ComputeAll(samples(i)); return nil }},
			{"stats_fixed", func(i int) error { stats.ComputeAllFixed(rfix[i]); return nil }},
			{"svm", func(i int) error {
				for j, b := range ens.Bases {
					b.Model.Decision(bases[i].x[j])
				}
				return nil
			}},
			{"svm_fixed", func(i int) error {
				for j, b := range ens.Bases {
					b.Model.DecisionFixed(bases[i].xf[j])
				}
				return nil
			}},
		}
		for _, k := range kernels {
			if err := lt.measure(k.name, n, k.fn); err != nil {
				return err
			}
		}
	}
	if events == 0 {
		return fmt.Errorf("layer replay: no segments to replay")
	}
	for _, f := range []struct{ name, usKey, allocKey string }{
		{"engine", "engine.classify_us", "engine.allocs_per_call"},
		{"engine_sync", "", "engine.sync_classify_allocs"},
		{"classify", "xsystem.classify_us", "xsystem.classify_allocs"},
		{"walk2", "xsystem.walk2_us", "xsystem.walk2_allocs"},
		{"walkk", "xsystem.walkk_us", "xsystem.walkk_allocs"},
		{"price", "xsystem.price_us", ""},
		{"transfer_groups", "topology.transfer_groups_us", "topology.transfer_groups_allocs"},
		{"dwt", "dwt.decompose_us", "dwt.decompose_allocs"},
		{"dwt_fixed", "dwt.decompose_fixed_us", "dwt.decompose_fixed_allocs"},
		{"stats", "stats.compute_all_us", "stats.compute_all_allocs"},
		{"stats_fixed", "stats.compute_all_fixed_us", "stats.compute_all_fixed_allocs"},
		{"svm", "svm.decision_us", "svm.decision_allocs"},
		{"svm_fixed", "svm.decision_fixed_us", "svm.decision_fixed_allocs"},
	} {
		lt.fill(res, f.name, f.usKey, f.allocKey)
	}
	res.layer["engine.self_us"] = median(selfUS)
	res.layer["engine.self_allocs"] = res.layer["engine.allocs_per_call"] - res.layer["xsystem.classify_allocs"]
	for _, k := range []string{"cell.dwt.sensor_us", "cell.feature.sensor_us", "cell.std-stage.sensor_us", "cell.svm.sensor_us", "cell.fusion_us", "cell.aggregator_us"} {
		res.layer[k] = cellUS[k] / float64(events)
	}
	res.layer["partition.generate_ms"] = median(genMs)
	res.layer["partition.multiway_solve_ms"] = median(solveMs)
	res.layer["setup.plan_tiers_ms"] = median(planMs)
	if runs := counterValue("xpro_generate_mincut_runs_total") - mincut0; runs > 0 {
		var total float64
		for _, g := range genMs {
			total += g
		}
		res.layer["maxflow.mincut_us"] = total * 1000 / runs
	}
	res.notef("layer replay: %d segments over %d cases through every layer", events, len(segs))
	return nil
}

// finishTrace writes the traced run's spans, fills the set-up layer from
// them, and reports every per-layer metric the workload does not
// exercise, or that got no sample in this run (a median of nothing), as
// 0, naming them.
func finishTrace(res *result, e *env, name string) (*result, error) {
	res.layer["setup.train_s"] = e.trainS
	if b := e.tr.durations("setup.new"); len(b) > 0 {
		res.layer["setup.engine_build_ms"] = median(b) / 1000
	}
	path, err := e.tr.write(e.o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.o.seed))
	if err != nil {
		return nil, err
	}
	res.notef("spans written to %s", path)
	var missing []string
	for _, d := range layerDefs() {
		if v, ok := res.layer[d.name]; !ok || math.IsNaN(v) {
			res.layer[d.name] = 0
			missing = append(missing, d.name)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		res.notef("not exercised by %s or no sample this run (reported as 0): %s", name, strings.Join(missing, " "))
	}
	return res, nil
}
