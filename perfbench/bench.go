package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"sort"
	"time"

	"loft/internal/perfmon"
)

// bench runs one workload for one invocation.
type bench struct {
	w       workload
	seed    uint64
	budget  float64 // seconds of measuring
	traced  bool
	scratch string
	log     io.Writer
}

// outcome is what an invocation reports.
type outcome struct {
	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

// rounds runs whole rounds until seconds have passed, at least one. The
// first successful round keeps its run directory and decoded events for
// the output checks; later rounds delete theirs at once. Each round starts
// from a collected heap whose free memory has gone back to the OS, as in a
// fresh process.
func (b *bench) rounds(seconds float64, root string, traced, exporters bool) (rs []*round, failed int, err error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; len(rs)+failed == 0 || time.Now().Before(deadline); i++ {
		debug.FreeOSMemory()
		var mon *perfmon.Monitor
		if traced {
			mon = perfmon.New(perfmon.Config{SampleEvery: 1})
		}
		dir := filepath.Join(root, fmt.Sprintf("round-%d", i))
		keep := len(rs) == 0
		r, rerr := runRound(b.w, b.seed, mon, dir, keep, exporters)
		if !keep || rerr != nil {
			if err := os.RemoveAll(dir); err != nil {
				return nil, 0, err
			}
		}
		if rerr != nil {
			fmt.Fprintf(b.log, "round %d failed: %v\n", i, rerr)
			failed++
			continue
		}
		fmt.Fprintf(b.log, "round %d: cpu %.4f s, loop %.4f s\n", i, r.cpuS, r.loopS)
		r.dir = dir
		rs = append(rs, r)
	}
	return rs, failed, nil
}

func (b *bench) run() (*outcome, error) {
	root := filepath.Join(b.scratch, fmt.Sprintf("%s-%d", b.w.name, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	out := &outcome{metrics: map[string]metric{}}
	seconds := b.budget
	if b.traced {
		seconds /= 2
	}
	plain, failed, err := b.rounds(seconds, root, false, b.traced)
	if err != nil {
		return nil, err
	}
	rss := peakRSSMB()
	out.attempted += len(plain) + failed
	out.failed += failed
	var profiled []*round
	if b.traced {
		profiled, failed, err = b.rounds(seconds, root, true, false)
		if err != nil {
			return nil, err
		}
		out.attempted += len(profiled) + failed
		out.failed += failed
	}
	if len(plain) == 0 || (b.traced && len(profiled) == 0) {
		return nil, fmt.Errorf("%s: every round failed", b.w.name)
	}
	fmt.Fprintf(b.log, "%s seed %d: %d plain rounds, %d profiled rounds\n", b.w.name, b.seed, len(plain), len(profiled))

	out.problems = append(out.problems, checkRepeats(append(append([]*round{}, plain...), profiled...))...)
	out.problems = append(out.problems, b.checkRound(plain[0])...)
	out.problems = append(out.problems, checkEngines(b.w, b.seed, filepath.Join(root, "engine"))...)

	if b.traced {
		lsfNs, err := driveLSFAll(b.seed)
		if err != nil {
			return nil, err
		}
		b.layerMetrics(out.metrics, plain, profiled, lsfNs)
	} else {
		b.endToEndMetrics(out.metrics, plain, rss)
	}
	return out, nil
}

// checkRepeats requires every round of a run to reproduce the first one's
// modelled output exactly: same seed, same result.
func checkRepeats(rs []*round) []string {
	want := rs[0].fingerprint()
	for i, r := range rs[1:] {
		if !reflect.DeepEqual(r.fingerprint(), want) {
			return []string{fmt.Sprintf("round %d's modelled output differs from round 0's under the same seed", i+1)}
		}
	}
	return nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func (b *bench) endToEndMetrics(m map[string]metric, rs []*round, rss float64) {
	r := rs[0]
	nodeCycles := float64(b.w.total()) * float64(r.nodes)
	var bytes int64
	for _, n := range r.artifactBytes {
		bytes += n
	}
	m["setup_s"] = metric{medianOf(rs, func(r *round) float64 { return r.patternS + r.newS }), "s"}
	m["ns_per_node_cycle"] = metric{medianOf(rs, func(r *round) float64 { return r.loopS * 1e9 / nodeCycles }), "ns"}
	m["cpu_s"] = metric{medianOf(rs, func(r *round) float64 { return r.cpuS }), "s"}
	m["peak_rss_mb"] = metric{rss, "MB"}
	m["artifact_mb"] = metric{float64(bytes) / 1e6, "MB"}
	m["accepted_flits_per_node_cycle"] = metric{r.res.TotalRate / float64(r.nodes), "flits/node/cycle"}
	m["avg_latency_cycles"] = metric{r.res.AvgLatency, "cycles"}
	m["victim_latency_cycles"] = metric{r.res.FlowLatency[b.w.victim()], "cycles"}
}

// routerStages maps each reported router stage onto the perfmon stage that
// implements it in either architecture.
var routerStages = []struct{ name, loft, gsf string }{
	{"drain", "drain", "drain"},
	{"frame", "frame", "gsf-frame"},
	{"switch", "switch", "switch"},
	{"booking", "booking", "booking"},
	{"alloc", "lookahead", "vcalloc"},
	{"flush", "flush", "flush"},
	{"commit", "commit", "commit"},
}

func stageNanos(s *perfmon.Snapshot, name string) float64 {
	for _, st := range s.Stages {
		if st.Name == name {
			return float64(st.Nanos)
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (b *bench) layerMetrics(m map[string]metric, plain, profiled []*round, lsfNs map[string]float64) {
	r := plain[0]
	cycles := float64(b.w.total())
	nodeCycles := cycles * float64(r.nodes)

	m["core.pattern_s"] = metric{medianOf(plain, func(r *round) float64 { return r.patternS }), "s"}
	m["core.network_new_s"] = metric{medianOf(plain, func(r *round) float64 { return r.newS }), "s"}
	m["sim.cycles"] = metric{cycles, "count"}
	m["sim.node_cycles"] = metric{nodeCycles, "count"}

	req := float64(r.lsfOut.Requests + r.lsfInj.Requests)
	sched := float64(r.lsfOut.Scheduled + r.lsfInj.Scheduled)
	m["lsf.requests"] = metric{req, "count"}
	m["lsf.scheduled"] = metric{sched, "count"}
	m["lsf.throttled"] = metric{float64(r.lsfOut.Throttled + r.lsfInj.Throttled), "count"}
	m["lsf.frame_skips"] = metric{float64(r.lsfOut.FrameSkips + r.lsfInj.FrameSkips), "count"}
	m["lsf.cond_blocks"] = metric{float64(r.lsfOut.CondBlocks + r.lsfInj.CondBlocks), "count"}
	m["lsf.resets"] = metric{float64(r.lsfOut.Resets + r.lsfInj.Resets), "count"}
	m["lsf.grant_ratio"] = metric{ratio(sched, req), "ratio"}
	for name, ns := range lsfNs {
		m["lsf."+name] = metric{ns, "ns"}
	}

	for _, st := range routerStages {
		impl := st.loft
		if b.w.arch != "loft" {
			impl = st.gsf
		}
		m["router."+st.name+"_ns"] = metric{medianOf(profiled, func(r *round) float64 {
			return stageNanos(r.perf, impl) / (float64(r.perf.Cycles) * float64(r.nodes))
		}), "ns"}
	}

	l := r.loft
	m["loft.spec_forwards"] = metric{float64(l.SpecForwards), "count"}
	m["loft.sched_forwards"] = metric{float64(l.SchedForwards), "count"}
	m["loft.spec_share"] = metric{ratio(float64(l.SpecForwards), float64(l.SpecForwards+l.SchedForwards)), "ratio"}
	m["loft.emergent_denied"] = metric{float64(l.EmergentDenied), "count"}
	m["loft.late_arrivals"] = metric{float64(l.LateArrivals), "count"}
	m["loft.ni_drops"] = metric{float64(l.Drops), "count"}
	m["loft.ejected_quanta"] = metric{float64(l.EjectedQuanta), "count"}
	gsfDrops := 0.0
	if b.w.arch != "loft" {
		gsfDrops = float64(r.res.Drops)
	}
	m["gsf.source_drops"] = metric{gsfDrops, "count"}

	m["probe.events"] = metric{float64(r.probeTotal), "count"}
	m["probe.dropped"] = metric{float64(r.probeDropped), "count"}
	m["probe.events_per_cycle"] = metric{float64(r.probeTotal) / cycles, "events/cycle"}
	write := medianOf(plain, func(r *round) float64 { return r.writeS })
	for _, f := range []string{"jsonl", "chrome", "csv"} {
		m["probe."+f+"_share"] = metric{ratio(medianOf(plain, func(r *round) float64 { return r.exporterS[f] }), write), "ratio"}
	}
	m["runio.export_s"] = metric{medianOf(plain, func(r *round) float64 { return r.exportS }), "s"}
	m["runio.write_s"] = metric{write, "s"}
	m["runio.events_jsonl_mb"] = metric{float64(r.artifactBytes["events.jsonl"]) / 1e6, "MB"}
	m["runio.trace_json_mb"] = metric{float64(r.artifactBytes["trace.json"]) / 1e6, "MB"}
	m["runio.series_csv_mb"] = metric{float64(r.artifactBytes["series.csv"]) / 1e6, "MB"}
	decompose := medianOf(plain, func(r *round) float64 { return r.decomposeS })
	m["trace.decompose_s"] = metric{decompose, "s"}
	m["trace.read_s"] = metric{medianOf(plain, func(r *round) float64 { return r.readS }), "s"}
	m["trace.decompose_share"] = metric{ratio(medianOf(plain, func(r *round) float64 { return r.decomposeCallS }), decompose), "ratio"}
	m["trace.quanta_complete"] = metric{float64(r.decomp.Complete), "count"}
	m["audit.grant_checks"] = metric{float64(r.audit.GrantChecks), "count"}
	m["audit.packets_checked"] = metric{float64(r.audit.PacketsChecked), "count"}
	m["audit.worst_pct_of_bound"] = metric{r.audit.WorstMarginPct, "%"}
	m["perfmon.overhead_s"] = metric{medianOf(profiled, func(r *round) float64 { return r.cpuS }) -
		medianOf(plain, func(r *round) float64 { return r.cpuS }), "s"}
}
