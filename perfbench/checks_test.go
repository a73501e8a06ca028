package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"loft/internal/core"
	"loft/internal/probe"
	"loft/internal/topo"
	"loft/internal/trace"
)

func TestAcceptedRateRejectsOfferedLoadTenPercentOff(t *testing.T) {
	// loft-uniform: 64 sources, a 4000-cycle window, 0.2 flits/cycle/node.
	const sources, window, offered, pkt = 64, 4000.0, 0.2, 4
	exact := offered * sources * window
	if p := checkAcceptedRate("load", exact, sources, window, offered, pkt); p != nil {
		t.Fatalf("exact offered load rejected: %v", p)
	}
	for _, f := range []float64{0.9, 1.1} {
		if p := checkAcceptedRate("load", f*exact, sources, window, offered, pkt); p == nil {
			t.Errorf("delivered load at %.0f%% of offered accepted", 100*f)
		}
	}
	if p := checkAcceptedRate("load", 0, sources, window, offered, pkt); p == nil {
		t.Error("nothing delivered, yet accepted")
	}
}

func TestLatencyBoundIsFrameWindowPerTable(t *testing.T) {
	// 0→63 on 8×8: 14 hops + 2 tables, F·WF = 512 cycles each.
	ok := []flowWorst{{flow: 0, src: 0, dst: 63, worst: 8192}}
	if p := checkLatencyBounds(8, 256, 2, ok); p != nil {
		t.Fatalf("worst latency at the bound rejected: %v", p)
	}
	over := []flowWorst{{flow: 0, src: 0, dst: 63, worst: 8193}}
	if p := checkLatencyBounds(8, 256, 2, over); p == nil {
		t.Error("worst latency one cycle over the bound accepted")
	}
	// A random-destination flow from a centre node is held to its farthest
	// destination: 4+4 hops from (3,3).
	centre := []flowWorst{{flow: 27, src: 27, dst: -1, worst: 512 * 10}}
	if p := checkLatencyBounds(8, 256, 2, centre); p != nil {
		t.Fatalf("centre flow at its bound rejected: %v", p)
	}
	centre[0].worst++
	if p := checkLatencyBounds(8, 256, 2, centre); p == nil {
		t.Error("centre flow over its bound accepted")
	}
}

func TestXYPath(t *testing.T) {
	path := xyPath(8, 0, 63)
	if len(path) != 15 || path[0] != 0 || path[7] != 7 || path[14] != 63 {
		t.Fatalf("xyPath(0, 63) = %v", path)
	}
	if xyHops(8, 56, 63) != 7 || farthestHops(8, 0) != 14 {
		t.Fatal("wrong XY distances")
	}
	if back := xyPath(8, 63, 0); back[1] != 62 || back[7] != 56 || back[8] != 48 {
		t.Fatalf("xyPath(63, 0) = %v", back)
	}
}

func goodLedger() ledger {
	return ledger{
		booked: 100, injected: 97, ejected: 95, inFlight: 5,
		complete: 95, incomplete: 5,
		streamBooked: 100, streamInjected: 97, streamEjected: 95,
	}
}

func TestConservationRejectsEveryCountOffByOne(t *testing.T) {
	if p := checkConservation(goodLedger()); p != nil {
		t.Fatalf("consistent ledger rejected: %v", p)
	}
	bump := map[string]func(*ledger){
		"booked":          func(l *ledger) { l.booked++ },
		"injected":        func(l *ledger) { l.injected = l.booked + 1 },
		"ejected":         func(l *ledger) { l.ejected++ },
		"in flight":       func(l *ledger) { l.inFlight++ },
		"complete":        func(l *ledger) { l.complete++ },
		"incomplete":      func(l *ledger) { l.incomplete-- },
		"stream booked":   func(l *ledger) { l.streamBooked++ },
		"stream injected": func(l *ledger) { l.streamInjected-- },
		"stream ejected":  func(l *ledger) { l.streamEjected++ },
	}
	for name, f := range bump {
		l := goodLedger()
		f(&l)
		if checkConservation(l) == nil {
			t.Errorf("%s off by one accepted", name)
		}
	}
	// In flight counts from booking: injected = ejected + in flight is not
	// an identity, and a ledger where it fails is still consistent.
	if l := goodLedger(); l.injected == l.ejected+uint64(l.inFlight) {
		t.Fatal("fixture does not separate booking from injection")
	}
}

// quantumStream is a well-formed event stream for one quantum of flow 0
// going 0→63 on an 8×8 mesh: booking, injection, one forward per router.
func quantumStream() []probe.Event {
	const slot = 2
	ev := []probe.Event{
		{Cycle: 0, Kind: probe.KindLAIssue, Node: 0, Loc: int32(topo.NumDirs), Flow: 0, Seq: 7},
		{Cycle: 3, Kind: probe.KindDataInject, Node: 0, Loc: int32(topo.NumDirs), Flow: 0, Seq: 7},
	}
	path := xyPath(8, 0, 63)
	cycle := uint64(3)
	for i, n := range path {
		cycle += slot + 1
		dir := int32(topo.East)
		if i >= 7 {
			dir = int32(topo.South)
		}
		if i == len(path)-1 {
			dir = int32(topo.Local)
		}
		ev = append(ev, probe.Event{Cycle: cycle, Kind: probe.KindDataForward, Node: int32(n), Loc: dir, Flow: 0, Seq: 7, Arg: cycle})
	}
	return ev
}

func decomposeQuanta(t *testing.T, ev []probe.Event) []trace.QuantumResult {
	t.Helper()
	d, err := trace.Decompose(ev, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Errors) != 0 {
		t.Fatalf("decomposition errors: %v", d.Errors)
	}
	return d.Quanta
}

func TestQuantaCheckRejectsStreamWithOneForwardRemoved(t *testing.T) {
	flows := map[int32]endpoints{0: {0, 63}}
	ev := quantumStream()
	qs := decomposeQuanta(t, ev)
	if len(qs) != 1 {
		t.Fatalf("want one decomposed quantum, got %d", len(qs))
	}
	if p := checkQuanta(8, flows, qs); p != nil {
		t.Fatalf("well-formed quantum rejected: %v", p)
	}
	if b, i, e := countStream(ev); b != 1 || i != 1 || e != 1 {
		t.Fatalf("countStream = %d/%d/%d, want 1/1/1", b, i, e)
	}
	for _, drop := range []int{2, 9, 15} { // first, a middle and the last router before the sink
		short := append(append([]probe.Event{}, ev[:drop]...), ev[drop+1:]...)
		if p := checkQuanta(8, flows, decomposeQuanta(t, short)); p == nil {
			t.Errorf("stream without forward %d accepted", drop)
		}
	}
	wrongFlow := map[int32]endpoints{0: {0, 62}}
	if p := checkQuanta(8, wrongFlow, qs); p == nil {
		t.Error("quantum ejected at the wrong destination accepted")
	}
}

func TestArtifactCheckRejectsOneFlippedByte(t *testing.T) {
	dir := t.TempDir()
	var listed []trace.Artifact
	for _, name := range []string{"events.jsonl", "audit.json"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Repeat(name, 100)), 0o644); err != nil {
			t.Fatal(err)
		}
		a, err := trace.FileArtifact(path)
		if err != nil {
			t.Fatal(err)
		}
		listed = append(listed, a)
	}
	want := []string{"events.jsonl", "audit.json"}
	if p := checkArtifacts(dir, listed, want); p != nil {
		t.Fatalf("intact artifacts rejected: %v", p)
	}
	path := filepath.Join(dir, "events.jsonl")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 1
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if p := checkArtifacts(dir, listed, want); p == nil {
		t.Error("artifact with a flipped byte accepted")
	}
	if p := checkArtifacts(dir, listed[1:], want); p == nil {
		t.Error("manifest missing an artifact accepted")
	}
}

func TestRepeatsRejectDifferingRound(t *testing.T) {
	a := &round{res: core.Result{Packets: 10, AvgLatency: 30}}
	b := &round{res: core.Result{Packets: 10, AvgLatency: 30}}
	if p := checkRepeats([]*round{a, b}); p != nil {
		t.Fatalf("identical rounds rejected: %v", p)
	}
	b.res.AvgLatency = 30.5
	if p := checkRepeats([]*round{a, b}); p == nil {
		t.Error("rounds with different results accepted")
	}
}

func TestLSFDriverKeepsStrictInvariants(t *testing.T) {
	for _, w := range lsfWindows {
		ns, err := driveLSF(w.slotsPerFrame, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for op, v := range ns {
			if v <= 0 {
				t.Errorf("%s: %s took %v ns", w.name, opNames[op], v)
			}
		}
	}
}
