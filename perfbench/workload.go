package main

import (
	"fmt"
	"os"
	"path/filepath"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/flit"
	"loft/internal/gsf"
	"loft/internal/loft"
	"loft/internal/lsf"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/runio"
	"loft/internal/stats"
	"loft/internal/trace"
	"loft/internal/traffic"
)

// workload is one named set of inputs. Every workload runs on one process
// with the sequential engine; the seed comes from --seed.
type workload struct {
	name            string
	arch            core.Arch
	warmup, measure uint64
	// rate is the offered load in flits/cycle/node; in the Case Study I
	// pattern it is the victim's rate and aggressor the aggressors'.
	rate, aggressor float64
	// export attaches the probe and the auditor, writes the full run
	// directory and decodes it again. Without it a run is bare and its run
	// directory holds only the manifest.
	export bool
}

var workloads = []workload{
	// The loaded paper network: lsf.Table walks and the LOFT router
	// stages carry the work.
	{name: "loft-uniform", arch: core.ArchLOFT, warmup: 1000, measure: 4000, rate: 0.2},
	// The GSF baseline at light load: its fixed per-cycle cost dominates
	// and lsf is never called.
	{name: "gsf-light", arch: core.ArchGSF, warmup: 1000, measure: 4000, rate: 0.05},
	// Case Study I with the auditor and a full export: probe emission,
	// runio, trace decoding and audit carry the work. 9000 cycles at about
	// 56 events per cycle stay under the probe ring's 1<<20 events.
	{name: "loft-dos-export", arch: core.ArchLOFT, warmup: 1000, measure: 8000, rate: 0.2, aggressor: 0.6, export: true},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// probeSampleEvery is loftsim's default gauge period for series.csv.
const probeSampleEvery = 256

func (w workload) total() uint64 { return w.warmup + w.measure }

func (w workload) pattern(lcfg config.LOFT) *traffic.Pattern {
	if w.aggressor > 0 {
		return traffic.CaseStudyI(lcfg.Mesh(), w.rate, w.aggressor, lcfg.PacketFlits, lcfg.FrameFlits)
	}
	return traffic.Uniform(lcfg.Mesh(), w.rate, lcfg.PacketFlits, lcfg.FrameFlits)
}

// victim is the regulated flow whose mean latency victim_latency_cycles
// reports: 0→63 in Case Study I, and node 0's flow under uniform traffic.
func (w workload) victim() flit.FlowID {
	if w.aggressor > 0 {
		return traffic.CaseStudyIVictim
	}
	return 0
}

// simNet is what a round needs from either architecture's network.
type simNet interface {
	Run(n uint64)
	Now() uint64
	Close()
	Latency() *stats.Latency
	NetLatency() *stats.Latency
	FlowLatency() *stats.FlowLatency
	Throughput() *stats.Throughput
}

// round is one whole run of a workload: construction, the cycle loop, the
// export of its run directory and the read-back of that directory. Times
// are host CPU seconds (see cpuSeconds).
type round struct {
	dir                         string // the run directory; kept for round 0 only
	patternS, newS, loopS, cpuS float64
	exportTimes

	res    core.Result
	nodes  int
	flows  []flit.Flow
	lsfOut lsf.Stats
	lsfInj lsf.Stats
	loft   loft.NodeStats
	perf   *perfmon.Snapshot

	// Export side; zero in bare workloads.
	probeTotal, probeDropped uint64
	audit                    audit.Snapshot
	manifest                 *trace.Manifest
	events                   []probe.Event
	dumpDropped              uint64
	decomp                   *trace.Decomposition
	artifactBytes            map[string]int64
	// exporterS times probe.Export per format, measured after the round
	// when asked for (per-layer runs only).
	exporterS map[string]float64
}

// fingerprint is the part of a round that must repeat exactly for a fixed
// seed. Rounds of one run are compared on it.
type fingerprint struct {
	res                       core.Result
	lsfOut, lsfInj            lsf.Stats
	loft                      loft.NodeStats
	probeTotal, probeDropped  uint64
	booked, injected, ejected uint64
	complete, incomplete      int
	artifacts                 string
}

func (r *round) fingerprint() fingerprint {
	fp := fingerprint{
		res: r.res, lsfOut: r.lsfOut, lsfInj: r.lsfInj, loft: r.loft,
		probeTotal: r.probeTotal, probeDropped: r.probeDropped,
		booked: r.audit.QuantaBooked, injected: r.audit.QuantaInjected, ejected: r.audit.QuantaEjected,
	}
	if r.decomp != nil {
		fp.complete, fp.incomplete = r.decomp.Complete, r.decomp.Incomplete
	}
	if r.manifest != nil {
		for _, a := range r.manifest.Artifacts {
			fp.artifacts += fmt.Sprintf("%s:%d:%s;", a.Name, a.Bytes, a.SHA256)
		}
	}
	return fp
}

// runRound runs one round of w with the given seed, writing its run
// directory to dir. mon attaches perfmon (nil: profiler off). keep retains
// the decoded events and decomposition for the output checks; exporters
// times each probe exporter after the round.
func runRound(w workload, seed uint64, mon *perfmon.Monitor, dir string, keep, exporters bool) (*round, error) {
	lcfg := config.PaperLOFT()
	r := &round{}
	start := cpuSeconds()
	p := w.pattern(lcfg)
	tPattern := cpuSeconds()
	var pr *probe.Probe
	var aud *audit.Auditor
	if w.export {
		pr = probe.New(probe.Config{SampleEvery: probeSampleEvery})
		aud = audit.New(audit.Config{})
	}
	var net simNet
	var lnet *loft.Network
	var gnet *gsf.Network
	var err error
	switch w.arch {
	case core.ArchLOFT:
		lnet, err = loft.New(lcfg, p, loft.Options{Seed: seed, Warmup: w.warmup, Probe: pr, Audit: aud, Perf: mon})
		net = lnet
	case core.ArchGSF:
		gnet, err = gsf.New(config.PaperGSF(), p, gsf.Options{Seed: seed, Warmup: w.warmup, BaseFrameFlits: lcfg.FrameFlits, Probe: pr, Audit: aud, Perf: mon})
		net = gnet
	default:
		err = fmt.Errorf("unknown architecture %q", w.arch)
	}
	if err != nil {
		return nil, fmt.Errorf("build %s network: %w", w.arch, err)
	}
	tNew := cpuSeconds()
	aud.StartRun(w.total())
	net.Run(w.total())
	tLoop := cpuSeconds()
	aud.FinishRun(net.Now())
	net.Close()

	r.nodes = p.Mesh.N()
	r.flows = p.Flows
	r.res = summarize(w.arch, net, p.Flows, r.nodes)
	if lnet != nil {
		r.loft = lnet.TotalStats()
		r.res.SpecForward = r.loft.SpecForwards
		r.res.Resets = lnet.ResetCount()
		r.res.Drops = r.loft.Drops
		r.res.FaultsInjected = r.loft.FaultsInjected
		r.res.FlitsLost = r.loft.FlitsLost
		r.res.Retries = r.loft.Retries
		r.lsfOut, r.lsfInj = lnet.SchedulerTotals()
	} else {
		r.res.Drops = gnet.Drops()
	}
	r.perf = mon.Snapshot()

	m := trace.Manifest{
		ManifestVersion: trace.ManifestVersion,
		Tool:            "perfbench",
		Command:         []string{"perfbench", "--workload", w.name},
		Arch:            string(w.arch),
		Pattern:         p.Name,
		Seeds:           []uint64{seed},
		WarmupCycles:    w.warmup,
		MeasureCycles:   w.measure,
		MeshK:           lcfg.MeshK,
		Nodes:           r.nodes,
		Config:          &lcfg,
	}
	if err := r.exportAndRead(dir, pr, aud, m, uint64(lcfg.QuantumFlits)); err != nil {
		return nil, err
	}
	r.patternS = tPattern - start
	r.newS = tNew - tPattern
	r.loopS = tLoop - tNew
	r.cpuS = cpuSeconds() - start
	r.probeTotal = pr.Tracer().Total()
	r.probeDropped = pr.Tracer().Dropped()
	r.audit = aud.Snapshot()
	r.artifactBytes = map[string]int64{}
	for _, a := range r.manifest.Artifacts {
		r.artifactBytes[a.Name] = a.Bytes
	}
	st, err := os.Stat(filepath.Join(dir, trace.ManifestName))
	if err != nil {
		return nil, err
	}
	r.artifactBytes[trace.ManifestName] = st.Size()
	if !keep {
		r.events = nil
		r.decomp = &trace.Decomposition{Complete: r.decomp.Complete, Incomplete: r.decomp.Incomplete, Dropped: r.decomp.Dropped}
	}
	if exporters && pr != nil {
		if r.exporterS, err = timeExporters(dir, pr); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// exportTimes times one export of a run directory and its read-back, in
// host CPU seconds. exportS covers the manifest metrics and runio.WriteRunDir,
// writeS the WriteRunDir call alone. decomposeS covers reading the
// directory back and decomposing its events, readS the reading and
// decomposeCallS the trace.Decompose call.
type exportTimes struct {
	exportS, writeS, readS, decomposeCallS, decomposeS float64
}

// exportAndRead writes the run directory the way loftsim -probe-out does
// (manifest metrics, then runio.WriteRunDir), then reads it back through
// internal/trace the way lofttrace decompose does.
func (r *round) exportAndRead(dir string, pr *probe.Probe, aud *audit.Auditor, m trace.Manifest, slotCycles uint64) error {
	start := cpuSeconds()
	m.Metrics = runio.Metrics(&r.res, pr, aud, nil, slotCycles)
	tWrite := cpuSeconds()
	if err := runio.WriteRunDir(dir, pr, aud, nil, m); err != nil {
		return fmt.Errorf("write run directory: %w", err)
	}
	tRead := cpuSeconds()
	back, err := trace.ReadManifest(dir)
	if err != nil {
		return fmt.Errorf("read manifest back: %w", err)
	}
	if hasArtifact(back, runio.EventsFile) {
		if r.events, r.dumpDropped, err = trace.ReadEventsFile(filepath.Join(dir, runio.EventsFile)); err != nil {
			return fmt.Errorf("read events back: %w", err)
		}
	}
	tDecompose := cpuSeconds()
	if r.decomp, err = trace.Decompose(r.events, slotCycles, r.dumpDropped); err != nil {
		return fmt.Errorf("decompose: %w", err)
	}
	end := cpuSeconds()
	r.manifest = back
	r.exportS = tRead - start
	r.writeS = tRead - tWrite
	r.readS = tDecompose - tRead
	r.decomposeCallS = end - tDecompose
	r.decomposeS = end - tRead
	return nil
}

// summarize builds the run's core.Result from the network's collectors,
// the way core.RunLOFT and core.RunGSF do; the engine check compares the
// two on a short run.
func summarize(arch core.Arch, net simNet, flows []flit.Flow, nodes int) core.Result {
	lat, latNet, latFlow, thr := net.Latency(), net.NetLatency(), net.FlowLatency(), net.Throughput()
	res := core.Result{
		Arch:          arch,
		AvgLatency:    lat.Mean(),
		MaxLatency:    lat.Max(),
		P50Latency:    lat.Percentile(50),
		P99Latency:    lat.Percentile(99),
		AvgNetLatency: latNet.Mean(),
		MaxNetLatency: latNet.Max(),
		Packets:       lat.Count(),
		TotalRate:     thr.Total(),
		FlowRate:      make(map[flit.FlowID]float64, len(flows)),
		FlowLatency:   make(map[flit.FlowID]float64, len(flows)),
		NodeRate:      make(map[int]float64, nodes),
	}
	for _, f := range flows {
		res.FlowRate[f.ID] = thr.Flow(f.ID)
		res.FlowLatency[f.ID] = latFlow.Mean(f.ID)
	}
	for n := 0; n < nodes; n++ {
		res.NodeRate[n] = thr.Node(n)
	}
	return res
}

func hasArtifact(m *trace.Manifest, name string) bool {
	for _, a := range m.Artifacts {
		if a.Name == name {
			return true
		}
	}
	return false
}

// timeExporters writes each probe export format once more, into scratch
// files beside the run directory, and takes each write's CPU time.
func timeExporters(dir string, pr *probe.Probe) (map[string]float64, error) {
	formats := []struct {
		name   string
		format probe.Format
	}{
		{"jsonl", probe.FormatJSONL},
		{"chrome", probe.FormatChromeTrace},
		{"csv", probe.FormatCSV},
	}
	out := make(map[string]float64, len(formats))
	for _, f := range formats {
		path := filepath.Join(dir, "exporter-"+f.name)
		start := cpuSeconds()
		file, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		err = probe.Export(file, pr, f.format)
		if cerr := file.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("export %s: %w", f.name, err)
		}
		out[f.name] = cpuSeconds() - start
		if err := os.Remove(path); err != nil {
			return nil, err
		}
	}
	return out, nil
}
