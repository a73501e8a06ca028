package main

import (
	"fmt"
	"math/rand"
	"time"

	"loft/internal/flit"
	"loft/internal/lsf"
)

// The standalone lsf.Table op stream times each public table operation on a
// fixed op stream drawn from the seed, in strict mode. Table 1 gives
// F = 256 flits in Q = 2 flit quanta over WF = 2 frames: WT = 256 slots.
// WT = 1024 (F = 1024 flits) shows how each operation scales with the
// window.
var lsfWindows = []struct {
	name          string
	slotsPerFrame int
}{
	{"wt256", 128},
	{"wt1024", 512},
}

const (
	opRequest = iota
	opReturnCredit
	opTick
	opReset
	opFirstScheduled
	numOps
)

var opNames = [numOps]string{"request", "return_credit", "tick", "reset", "first_scheduled"}

const (
	lsfFlows        = 64   // contending flows, as in Table 1
	lsfLoops        = 3000 // op-stream length in loops
	lsfRequests     = 4    // requests per loop
	lsfTicks        = 8    // slots per loop
	lsfFirsts       = 4    // FirstScheduled calls per loop
	lsfResetEvery   = 50   // loops between drains that end in a Reset
	lsfRepeats      = 5    // whole streams; the median is reported
	lsfMaxDelayTags = 4    // a credit returns 1..4 slots after departure
)

// driveLSFAll returns the median ns per call of every operation at both
// window sizes, keyed "<op>_ns.<window>".
func driveLSFAll(seed uint64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, w := range lsfWindows {
		var reps [numOps][]float64
		for i := 0; i < lsfRepeats; i++ {
			ns, err := driveLSF(w.slotsPerFrame, seed)
			if err != nil {
				return nil, fmt.Errorf("lsf op stream %s: %w", w.name, err)
			}
			for op := range ns {
				reps[op] = append(reps[op], ns[op])
			}
		}
		for op, xs := range reps {
			out[opNames[op]+"_ns."+w.name] = median(xs)
		}
	}
	return out, nil
}

// driveLSF runs one op stream and returns the mean ns per call of each
// operation. Each loop books lsfRequests quanta for random flows, asks for
// the first booked slot, advances lsfTicks slots and returns the credits
// of the quanta that have departed. Every lsfResetEvery loops the table
// drains and takes a local status reset. Calls of one kind are timed as a
// batch, so clock reads weigh little on the cheap operations.
func driveLSF(slotsPerFrame int, seed uint64) (ns [numOps]float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("strict-mode invariant: %v", r)
		}
	}()
	tb := lsf.NewTable("perfbench", lsf.Params{SlotsPerFrame: slotsPerFrame, Frames: 2, BufferQuanta: slotsPerFrame, Strict: true})
	for f := 0; f < lsfFlows; f++ {
		if err := tb.AddFlow(flit.FlowID(f), slotsPerFrame/lsfFlows); err != nil {
			return ns, err
		}
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	wt := uint64(tb.WindowSlots())
	var spent [numOps]time.Duration
	var calls [numOps]int
	var flows [lsfRequests]flit.FlowID
	var minSlots, slots [lsfRequests]uint64
	var granted [lsfRequests]bool
	var inflight, waiting, tags []uint64
	var quantum uint64
	for loop := 1; loop <= lsfLoops; loop++ {
		now := tb.NowSlot()
		for j := range flows {
			flows[j] = flit.FlowID(rng.Intn(lsfFlows))
			minSlots[j] = now + uint64(rng.Intn(8))
		}
		start := time.Now()
		for j := range flows {
			slots[j], granted[j] = tb.Request(flows[j], quantum+uint64(j), minSlots[j])
		}
		spent[opRequest] += time.Since(start)
		calls[opRequest] += lsfRequests
		quantum += lsfRequests
		for j := range flows {
			if granted[j] {
				inflight = append(inflight, slots[j])
			}
		}

		start = time.Now()
		for j := 0; j < lsfFirsts; j++ {
			tb.FirstScheduled()
		}
		spent[opFirstScheduled] += time.Since(start)
		calls[opFirstScheduled] += lsfFirsts

		start = time.Now()
		for j := 0; j < lsfTicks; j++ {
			tb.Tick()
		}
		spent[opTick] += time.Since(start)
		calls[opTick] += lsfTicks

		now = tb.NowSlot()
		tags, waiting = tags[:0], waiting[:0]
		for _, s := range inflight {
			if s >= now {
				waiting = append(waiting, s)
				continue
			}
			tags = append(tags, min(s+1+uint64(rng.Intn(lsfMaxDelayTags)), now+wt-1))
		}
		inflight, waiting = waiting, inflight
		start = time.Now()
		for _, tag := range tags {
			tb.ReturnCredit(tag)
		}
		spent[opReturnCredit] += time.Since(start)
		calls[opReturnCredit] += len(tags)

		if loop%lsfResetEvery == 0 {
			for _, s := range inflight {
				tb.ReturnCredit(min(s+1, now+wt-1))
			}
			inflight = inflight[:0]
			for i := uint64(0); i < wt && !tb.AllIdle(); i++ {
				tb.Tick()
			}
			if !tb.AllIdle() || tb.Outstanding() != 0 {
				return ns, fmt.Errorf("table not drained before reset: %d slots booked, %d credits outstanding", tb.BookedSlots(), tb.Outstanding())
			}
			start = time.Now()
			tb.Reset()
			spent[opReset] += time.Since(start)
			calls[opReset]++
		}
	}
	for op := range ns {
		if calls[op] == 0 {
			return ns, fmt.Errorf("op stream made no %s call", opNames[op])
		}
		ns[op] = float64(spent[op].Nanoseconds()) / float64(calls[op])
	}
	return ns, nil
}
