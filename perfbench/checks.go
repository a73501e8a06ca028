package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/probe"
	"loft/internal/runio"
	"loft/internal/topo"
	"loft/internal/trace"
)

// The checks below recompute what a correct run must show from the
// configuration, the mesh geometry and the raw outputs, without calling
// the simulator's own analysis code. Each returns one line per failure.

// checkAcceptedRate compares the flits delivered in a measurement window
// with the offered load. Packets are generated by a Bernoulli process of
// probability offered/pktFlits per source and cycle, so the delivered
// packet count n has a standard deviation of about sqrt(n·(1−p)); the
// check allows four of them.
func checkAcceptedRate(what string, deliveredFlits float64, sources int, window, offered float64, pktFlits int) []string {
	want := offered * float64(sources) * window
	p := offered / float64(pktFlits)
	n := deliveredFlits / float64(pktFlits)
	tol := 4 * math.Sqrt(n*(1-p)) * float64(pktFlits)
	if n <= 0 || math.Abs(deliveredFlits-want) > tol {
		return []string{fmt.Sprintf("%s: delivered %.0f flits in %.0f cycles, offered %.0f (tolerance ±%.0f)",
			what, deliveredFlits, window, want, tol)}
	}
	return nil
}

func checkZero(what string, n uint64) []string {
	if n != 0 {
		return []string{fmt.Sprintf("%s: %d, want 0", what, n)}
	}
	return nil
}

// xy returns a node's mesh coordinates.
func xy(k, node int) (x, y int) { return node % k, node / k }

// xyHops is the XY-routing distance between two nodes.
func xyHops(k, a, b int) int {
	ax, ay := xy(k, a)
	bx, by := xy(k, b)
	return abs(ax-bx) + abs(ay-by)
}

// farthestHops is the largest XY distance from a node to any other.
func farthestHops(k, a int) int {
	x, y := xy(k, a)
	return max(x, k-1-x) + max(y, k-1-y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// xyPath lists the routers a quantum crosses from src to dst under XY
// routing: X first, then Y, both ends included.
func xyPath(k, src, dst int) []int {
	x, y := xy(k, src)
	dx, dy := xy(k, dst)
	path := []int{src}
	for x != dx {
		x += sign(dx - x)
		path = append(path, y*k+x)
	}
	for y != dy {
		y += sign(dy - y)
		path = append(path, y*k+x)
	}
	return path
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	return 1
}

// flowWorst is one flow's worst observed network latency.
type flowWorst struct {
	flow, src, dst int // dst < 0: a fresh destination per packet
	worst          uint64
}

// checkLatencyBounds holds every flow's worst network latency to the LOFT
// bound F·WF·(hops+2): one frame window per framed table on the path,
// counting the injection and ejection tables. A flow without a fixed
// destination is held to its farthest destination.
func checkLatencyBounds(k, frameFlits, frameWindow int, flows []flowWorst) []string {
	var probs []string
	for _, f := range flows {
		hops := farthestHops(k, f.src)
		if f.dst >= 0 {
			hops = xyHops(k, f.src, f.dst)
		}
		bound := uint64(frameFlits * frameWindow * (hops + 2))
		if f.worst > bound {
			probs = append(probs, fmt.Sprintf("flow %d (%d→%d, %d hops): worst latency %d cycles above the %d-cycle bound",
				f.flow, f.src, f.dst, hops, f.worst, bound))
		}
	}
	return probs
}

// ledger is the quantum accounting of one exported run.
type ledger struct {
	// From the audit snapshot.
	booked, injected, ejected uint64
	inFlight                  int
	// From the decomposition of the exported events.
	complete, incomplete int
	// Counted by the benchmark from the decoded event stream.
	streamBooked, streamInjected, streamEjected uint64
}

// countStream counts the quanta booked at their NI (the look-ahead flit
// sent onto the injection link), physically injected, and ejected into
// their sink, straight from an event stream.
func countStream(events []probe.Event) (booked, injected, ejected uint64) {
	for _, e := range events {
		switch {
		case e.Kind == probe.KindLAIssue && e.Loc == int32(topo.NumDirs):
			booked++
		case e.Kind == probe.KindDataInject:
			injected++
		case e.Kind == probe.KindDataForward && e.Loc == int32(topo.Local):
			ejected++
		}
	}
	return booked, injected, ejected
}

// checkConservation checks the identities a correct run satisfies. A
// quantum counts as in flight from its booking, not its injection, so
// booked = ejected + in flight, while injected = ejected + in flight does
// not hold.
func checkConservation(l ledger) []string {
	var probs []string
	fail := func(format string, args ...any) { probs = append(probs, fmt.Sprintf(format, args...)) }
	if l.booked != l.ejected+uint64(l.inFlight) {
		fail("quanta booked %d != ejected %d + in flight %d", l.booked, l.ejected, l.inFlight)
	}
	if !(l.ejected <= l.injected && l.injected <= l.booked) {
		fail("want ejected %d <= injected %d <= booked %d", l.ejected, l.injected, l.booked)
	}
	if uint64(l.complete) != l.ejected {
		fail("decomposed complete quanta %d != ejected %d", l.complete, l.ejected)
	}
	if l.incomplete != l.inFlight {
		fail("decomposed incomplete quanta %d != in flight %d", l.incomplete, l.inFlight)
	}
	if l.streamBooked != l.booked || l.streamInjected != l.injected || l.streamEjected != l.ejected {
		fail("event stream counts booked/injected/ejected %d/%d/%d, audit %d/%d/%d",
			l.streamBooked, l.streamInjected, l.streamEjected, l.booked, l.injected, l.ejected)
	}
	return probs
}

// endpoints gives a flow's source and destination nodes.
type endpoints struct{ src, dst int }

// checkQuanta checks every decomposed quantum's path: it crosses the XY
// path's routers in order, XY distance + 1 links with the ejection last,
// leaves at its flow's destination, and has Total >= Serialization.
func checkQuanta(k int, flows map[int32]endpoints, qs []trace.QuantumResult) []string {
	var probs []string
	for _, q := range qs {
		if len(probs) >= 5 {
			probs = append(probs, "further quanta not checked")
			break
		}
		fail := func(format string, args ...any) {
			probs = append(probs, fmt.Sprintf("flow %d quantum %d: ", q.Flow, q.Seq)+fmt.Sprintf(format, args...))
		}
		ep, ok := flows[q.Flow]
		if !ok {
			fail("unknown flow")
			continue
		}
		path := xyPath(k, ep.src, ep.dst)
		if int(q.Src) != ep.src || int(q.Dst) != ep.dst {
			fail("went %d→%d, flow is %d→%d", q.Src, q.Dst, ep.src, ep.dst)
			continue
		}
		if len(q.Forwards) != len(path) {
			fail("crossed %d links, XY distance + 1 is %d", len(q.Forwards), len(path))
			continue
		}
		for i, f := range q.Forwards {
			if int(f.Node) != path[i] {
				fail("hop %d at router %d, XY path has %d", i, f.Node, path[i])
				break
			}
		}
		if last := q.Forwards[len(q.Forwards)-1]; last.Dir != int32(topo.Local) {
			fail("last crossing leaves through port %d, not the ejection port", last.Dir)
		}
		if q.Components.Total < q.Components.Serialization {
			fail("total %d cycles below serialization %d", q.Components.Total, q.Components.Serialization)
		}
	}
	return probs
}

// checkArtifacts recomputes the size and sha256 of every artifact the
// manifest lists and requires each wanted file to be listed.
func checkArtifacts(dir string, listed []trace.Artifact, want []string) []string {
	var probs []string
	seen := map[string]bool{}
	for _, a := range listed {
		seen[a.Name] = true
		n, sum, err := hashFile(filepath.Join(dir, a.Name))
		if err != nil {
			probs = append(probs, err.Error())
			continue
		}
		if n != a.Bytes || sum != a.SHA256 {
			probs = append(probs, fmt.Sprintf("%s: %d bytes sha256 %s, manifest says %d bytes sha256 %s", a.Name, n, sum, a.Bytes, a.SHA256))
		}
	}
	for _, name := range want {
		if !seen[name] {
			probs = append(probs, fmt.Sprintf("manifest does not list %s", name))
		}
	}
	return probs
}

func hashFile(path string) (int64, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, "", err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, "", err
	}
	return n, hex.EncodeToString(h.Sum(nil)), nil
}

// checkRound runs the output checks on a run's first round.
func (b *bench) checkRound(r *round) []string {
	cfg := config.PaperLOFT()
	k := cfg.MeshK
	window := float64(b.w.measure)
	var probs []string
	if b.w.aggressor > 0 {
		v := b.w.victim()
		probs = append(probs, checkAcceptedRate("victim accepted load", r.res.FlowRate[v]*window, 1, window, b.w.rate, cfg.PacketFlits)...)
	} else {
		probs = append(probs, checkAcceptedRate("accepted load", r.res.TotalRate*window, r.nodes, window, b.w.rate, cfg.PacketFlits)...)
		probs = append(probs, checkZero("packets dropped", r.res.Drops)...)
	}
	if b.w.arch == core.ArchLOFT && !b.w.export {
		probs = append(probs, checkLatencyBounds(k, cfg.FrameFlits, cfg.FrameWindow,
			[]flowWorst{{flow: -1, src: 0, dst: -1, worst: r.res.MaxNetLatency}})...)
	}
	if !b.w.export {
		return probs
	}

	var worst []flowWorst
	for _, f := range r.audit.Flows {
		worst = append(worst, flowWorst{flow: int(f.Flow), src: int(f.Src), dst: int(f.Dst), worst: f.Worst})
	}
	if len(worst) != len(r.flows) {
		probs = append(probs, fmt.Sprintf("audit reports %d flows, the pattern has %d", len(worst), len(r.flows)))
	}
	probs = append(probs, checkLatencyBounds(k, cfg.FrameFlits, cfg.FrameWindow, worst)...)
	probs = append(probs, checkZero("audit violations", r.audit.Violations)...)

	l := ledger{
		booked: r.audit.QuantaBooked, injected: r.audit.QuantaInjected, ejected: r.audit.QuantaEjected,
		inFlight: r.audit.InFlightQuanta, complete: r.decomp.Complete, incomplete: r.decomp.Incomplete,
	}
	l.streamBooked, l.streamInjected, l.streamEjected = countStream(r.events)
	probs = append(probs, checkConservation(l)...)

	flows := map[int32]endpoints{}
	for _, f := range r.flows {
		flows[int32(f.ID)] = endpoints{int(f.Src), int(f.Dst)}
	}
	probs = append(probs, checkQuanta(k, flows, r.decomp.Quanta)...)
	for _, e := range r.decomp.Errors {
		probs = append(probs, "decomposition: "+e)
	}
	probs = append(probs, checkZero("events dropped by the probe ring", r.probeDropped)...)
	probs = append(probs, checkZero("events dropped according to the dump", r.dumpDropped)...)
	probs = append(probs, checkArtifacts(r.dir, r.manifest.Artifacts,
		[]string{runio.EventsFile, runio.SeriesFile, runio.ChromeFile, runio.AuditFile})...)
	return probs
}

// Engine check lengths: long enough for traffic to reach every router.
const engineWarmup, engineMeasure = 200, 1300

// checkEngines reruns a shortened workload through the core facade on the
// sequential engine and on two workers. Both must give the same Result and
// the same probe event stream, and the Result must equal the one this
// benchmark assembles from the network's collectors.
func checkEngines(w workload, seed uint64, dir string) []string {
	lcfg := config.PaperLOFT()
	run := func(workers int) (core.Result, []probe.Event, error) {
		pr := probe.New(probe.Config{SampleEvery: probeSampleEvery})
		spec := core.RunSpec{Seed: seed, Warmup: engineWarmup, Measure: engineMeasure, Probe: pr, Workers: workers}
		var res core.Result
		var err error
		if w.arch == core.ArchLOFT {
			res, _, err = core.RunLOFT(lcfg, w.pattern(lcfg), spec)
		} else {
			res, _, err = core.RunGSF(config.PaperGSF(), w.pattern(lcfg), lcfg.FrameFlits, spec)
		}
		return res, pr.Events(), err
	}
	seq, seqEvents, err := run(1)
	if err != nil {
		return []string{"sequential engine: " + err.Error()}
	}
	par, parEvents, err := run(2)
	if err != nil {
		return []string{"two workers: " + err.Error()}
	}
	var probs []string
	if !reflect.DeepEqual(seq, par) {
		probs = append(probs, "two workers give a different Result than the sequential engine")
	}
	if !reflect.DeepEqual(seqEvents, parEvents) {
		probs = append(probs, fmt.Sprintf("two workers give a different event stream (%d events) than the sequential engine (%d)", len(parEvents), len(seqEvents)))
	}
	short := w
	short.warmup, short.measure, short.export = engineWarmup, engineMeasure, false
	mine, err := runRound(short, seed, nil, dir, false, false)
	if err != nil {
		return append(probs, "short round: "+err.Error())
	}
	if !reflect.DeepEqual(mine.res, seq) {
		probs = append(probs, "the benchmark's Result differs from core's on the same run")
	}
	return probs
}
