package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The shared host the benchmark was built on changes speed by 10-40% over
// tens of seconds to hours, as other tenants load it, and the program's
// time follows: no window length or median inside one run removes a drift
// that outlasts the run. So every measured window interleaves calibration
// units with the program's operations. A unit is fixed work of the kinds
// the program does: Go standard library work on small data (decoding a
// JSON document, building maps and a pointer tree, sorting and formatting
// strings) and dependent loads from tables larger than the core's caches.
// It slows down with the host the way the program does, and no change to
// the program changes it. Each operation's time is scaled by calRefMs over
// the median time of the calibration units nearest to it: the end-to-end
// times are the program's times at the speed where a unit takes calRefMs.
// The results file keeps the unscaled values beside them.

// calRefMs is the calibration unit's time, in ms, at the reference speed
// the scaled metrics are reported at.
const calRefMs = 8.0

// calWindow is how many calibration units, centred on an operation, the
// median that scales it is taken over.
const calWindow = 41

// calibration is the fixed input of the calibration unit. It is generated
// from a constant seed, never from --seed, so every run does the same work.
type calibration struct {
	doc   []byte   // a JSON array of records the unit decodes
	words []string // strings the unit indexes, inserts, sorts and formats
	// next is one cycle through 16 MiB that the unit chases, and probe a
	// map of calProbes keys it looks up.
	next  []uint32
	probe map[uint64]uint32
}

const (
	calCycle  = 1 << 22
	calProbes = 200000
	calSteps  = 10000 // chase steps and map probes per unit
	calMix    = 2654435761
)

type calRecord struct {
	Name  string            `json:"name"`
	Attrs map[string]string `json:"attrs"`
	Kids  []int             `json:"kids"`
}

func newCalibration() *calibration {
	rng := rand.New(rand.NewSource(42))
	c := &calibration{}
	for i := 0; i < 4000; i++ {
		b := make([]byte, 3+rng.Intn(10))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		c.words = append(c.words, string(b))
	}
	var recs []calRecord
	for i := 0; i < 300; i++ {
		attrs := map[string]string{}
		for j := 0; j < 5; j++ {
			attrs[c.words[rng.Intn(len(c.words))]] = c.words[rng.Intn(len(c.words))]
		}
		recs = append(recs, calRecord{Name: c.words[i], Attrs: attrs, Kids: rng.Perm(8)})
	}
	doc, err := json.Marshal(recs)
	if err != nil {
		panic(err)
	}
	c.doc = doc
	c.next = make([]uint32, calCycle)
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	for i := calCycle - 1; i > 0; i-- { // Sattolo's shuffle: a single cycle
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	c.probe = make(map[uint64]uint32, calProbes)
	for i := range calProbes {
		c.probe[uint64(i)*calMix] = uint32(i)
	}
	return c
}

type calNode struct {
	key         string
	left, right *calNode
	vals        []int
}

// work is one calibration unit. It returns a value that depends on all of
// its work, so none of it can be optimised away.
func (c *calibration) work() int {
	var recs []calRecord
	if err := json.Unmarshal(c.doc, &recs); err != nil {
		panic(err)
	}
	index := map[string]int{}
	var root *calNode
	for i, w := range c.words {
		index[w+"."+strconv.Itoa(i%97)] = i
		n := &calNode{key: w, vals: make([]int, 1+i%5)}
		link := &root
		for *link != nil {
			if w < (*link).key {
				link = &(*link).left
			} else {
				link = &(*link).right
			}
		}
		*link = n
	}
	keys := make([]string, 0, len(index))
	for k := range index {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys[:500] {
		fmt.Fprintf(&sb, "%s=%d;", k, index[k])
	}
	p := uint32(0)
	for range calSteps {
		p = c.next[p] // each load waits for the one before
	}
	for i := range calSteps {
		p += c.probe[uint64(i*7919%calProbes)*calMix]
	}
	return len(recs) + sb.Len() + int(p)
}

// calThreads is how many calibration units run at once, one per core of
// the 2-core box the benchmark was sized on: the program uses both (the
// serve clients and workers, and the collector beside a batch operation),
// and a unit on each core sees a tenant that loads either.
const calThreads = 2

// measure runs n rounds of calThreads calibration units at once and
// appends each unit's time, in ms, to into. The units start from a
// collected and swept heap and run with the collector off, so their times
// depend neither on the size of the program's heap nor on the garbage it
// left.
func (c *calibration) measure(n int, into []float64) []float64 {
	runtime.GC()
	old := debug.SetGCPercent(-1)
	times := make([]float64, n*calThreads)
	var wg sync.WaitGroup
	for t := range calThreads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range n {
				start := time.Now()
				c.work()
				times[i*calThreads+t] = ms(time.Since(start))
			}
		}()
	}
	wg.Wait()
	debug.SetGCPercent(old)
	return append(into, times...)
}

// scales returns, for each of n operations, the factor that brings its time
// to the reference speed: calRefMs over the median of the calWindow
// calibration units nearest to it. unitOf maps an operation to the index in
// cal of the unit measured with it.
func scales(cal []float64, n int, unitOf func(op int) int) []float64 {
	out := make([]float64, n)
	for i := range out {
		u := unitOf(i)
		lo := max(0, min(u-calWindow/2, len(cal)-calWindow))
		hi := min(len(cal), lo+calWindow)
		out[i] = calRefMs / median(cal[lo:hi])
	}
	return out
}
