package main

import (
	"math"
	"sort"
	"time"
)

// Host time on a shared machine drifts from run to run and within a
// run: on the 2-vCPU Xeon host the benchmark was tuned on, the median
// time of one batch of 250 tpcc steps moved between 5.7 and 9.7 ms
// over 3-s windows of a single process, for identical simulated work,
// and per-thread CPU time moved with it. A fixed, program-independent
// reference kernel run just before and just after each timed interval
// slows down with the host, so dividing by it cancels much of the
// drift. Every host-time figure the benchmark reports is therefore
//
//	normalized = raw × refNominalSec / ref
//
// where ref is the mean of the two bracketing kernel times. The
// constant keeps the unit seconds: a normalized second is the time the
// interval would take on a host where the kernel takes refNominalSec.
//
// The kernel is three dependent pointer chases, the access pattern of
// the simulator's cache and table lookups, each along a random cycle
// through a table of its own: once around a 256 KiB table that stays
// in a host core's L2, 4096 steps on through a 4 MiB table that misses
// to the shared last-level cache, and 1024 steps on through a 64 MiB
// table that misses to DRAM. They track, in turn, a busy sibling
// hyperthread, contention for the shared cache and for memory. Over
// six kv-read runs the first two cut the spread (IQR/median) of the
// median batch time from 8.4% raw to 3.7%, where a 16 MiB streaming
// kernel or pure ALU work reached only 7%; over five paper-sweep runs
// the third cut the spread of sweep_s from 15% to 5%.

// refNominalSec is the reference kernel's typical time on the tuning
// host (go1.24, linux/amd64).
const refNominalSec = 1.65e-3

const (
	refL2Entries   = 1 << 16 // 256 KiB of uint32 links
	refLLCEntries  = 1 << 20 // 4 MiB of uint32 links
	refLLCSteps    = 1 << 12
	refDRAMEntries = 1 << 24 // 64 MiB of uint32 links
	refDRAMSteps   = 1 << 10
)

// refTableBytes is the heap the kernel's tables take, which mem_mb
// leaves out.
const refTableBytes = 4 * (refL2Entries + refLLCEntries + refDRAMEntries)

// refReps is how many passes one kernel measurement takes; the fastest
// is kept, so an interrupt during one pass does not skew the bracket.
const refReps = 2

// randomCycle returns a table whose links form one random cycle
// through all n entries (Sattolo's algorithm over a fixed xorshift
// sequence).
func randomCycle(n int) []uint32 {
	t := make([]uint32, n)
	for i := range t {
		t[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := len(t) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		t[i], t[j] = t[j], t[i]
	}
	return t
}

// The kernel's tables are built once at start-up; the kernel itself
// allocates nothing.
var (
	refL2   = randomCycle(refL2Entries)
	refLLC  = randomCycle(refLLCEntries)
	refDRAM = randomCycle(refDRAMEntries)
	// refPos and refDRAMPos are where the larger chases resume, so
	// successive passes walk on through the whole table instead of a
	// cached prefix.
	refPos, refDRAMPos uint32
	// refSink keeps the L2 chase's result live.
	refSink uint32
)

// refPass is one pass of the reference kernel. Its work is fixed and
// independent of the simulator.
func refPass() {
	p := refSink
	for i := 0; i < refL2Entries; i++ {
		p = refL2[p]
	}
	refSink = p
	q := refPos
	for i := 0; i < refLLCSteps; i++ {
		q = refLLC[q]
	}
	refPos = q
	d := refDRAMPos
	for i := 0; i < refDRAMSteps; i++ {
		d = refDRAM[d]
	}
	refDRAMPos = d
}

// measureRef times the reference kernel and returns seconds.
func measureRef() float64 {
	best := math.Inf(1)
	for r := 0; r < refReps; r++ {
		start := time.Now()
		refPass()
		if d := time.Since(start).Seconds(); d < best {
			best = d
		}
	}
	return best
}

// normalize converts a raw host interval to reference-normalized
// seconds, given the reference kernel times measured just before and
// just after it.
func normalize(raw, refBefore, refAfter float64) float64 {
	return raw * refNominalSec / ((refBefore + refAfter) / 2)
}

// refClock times host intervals bracketed by the reference kernel.
// Consecutive intervals share a bracket: the kernel run after one
// interval is the one before the next.
type refClock struct {
	prev float64   // the most recent kernel time
	refs []float64 // every kernel time measured, for host.ref_ms
}

func newRefClock() *refClock {
	c := &refClock{}
	c.prev = c.ref()
	return c
}

func (c *refClock) ref() float64 {
	r := measureRef()
	c.refs = append(c.refs, r)
	return r
}

// interval is one timed host interval.
type interval struct {
	raw  float64 // wall seconds
	norm float64 // reference-normalized seconds
}

// time runs fn between two kernel brackets.
func (c *refClock) time(fn func() error) (interval, error) {
	start := time.Now()
	err := fn()
	raw := time.Since(start).Seconds()
	after := c.ref()
	iv := interval{raw: raw, norm: normalize(raw, c.prev, after)}
	c.prev = after
	return iv, err
}

// refSamplePeriod is how often timeLong samples the kernel inside an
// interval.
const refSamplePeriod = 100 * time.Millisecond

// timeLong is time for an interval of a second or more — a set-up, a
// figure call — over which the host's speed drifts: the kernel is also
// sampled every refSamplePeriod while fn runs, and ref is the mean of
// the brackets and the samples. The sampler is a second goroutine;
// with GOMAXPROCS 1 it time-slices with fn's goroutine on the same CPU,
// so it sees the host fn sees. Its own run time is taken out of raw.
func (c *refClock) timeLong(fn func() error) (interval, error) {
	stop := make(chan struct{})
	done := make(chan struct{})
	var samples []float64
	var busy time.Duration
	go func() {
		defer close(done)
		tick := time.NewTicker(refSamplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				start := time.Now()
				samples = append(samples, measureRef())
				busy += time.Since(start)
			}
		}
	}()
	start := time.Now()
	err := fn()
	elapsed := time.Since(start)
	close(stop)
	<-done
	raw := (elapsed - busy).Seconds()
	after := c.ref()
	sum := c.prev + after
	for _, r := range samples {
		sum += r
	}
	ref := sum / float64(len(samples)+2)
	c.refs = append(c.refs, samples...)
	c.prev = after
	return interval{raw: raw, norm: normalize(raw, ref, ref)}, err
}

// rebracket measures a fresh "before" bracket, for an interval that
// does not directly follow the previous one.
func (c *refClock) rebracket() { c.prev = c.ref() }

// refMs is the median raw kernel time in milliseconds.
func (c *refClock) refMs() float64 { return 1e3 * median(c.refs) }

// median returns the middle value of xs (the mean of the middle two
// for an even count), or 0 for none. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBasisPoints are the candidate tail percentiles in hundredths of
// a percent, lowest first; integers keep the rank arithmetic exact.
var tailBasisPoints = []int{5000, 9000, 9900, 9990, 9999}

// tail returns the highest candidate percentile of xs that leaves at
// least ten samples above it, with that percentile and the sample
// count. ok is false when xs has too few samples for even the median
// to leave ten beyond it.
func tail(xs []float64) (value, pct float64, n int, ok bool) {
	s := sortedCopy(xs)
	n = len(s)
	for _, bp := range tailBasisPoints {
		// Nearest rank: the sample at rank ceil(bp·n / 10000).
		rank := (bp*n + 9999) / 10000
		if rank < 1 || n-rank < 10 {
			break
		}
		value, pct, ok = s[rank-1], float64(bp)/100, true
	}
	return value, pct, n, ok
}
