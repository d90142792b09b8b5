package main

import (
	"fmt"
	"time"
)

// The host-speed yardstick. The benchmark runs on shared VMs whose speed
// drifts by a third and more over minutes, and bursts for seconds, as
// neighbours load the host; identical work then reads very different
// host times. The yardstick is a fixed kernel that does what the
// simulator's hot path does — set-associative LRU lookups, a
// direct-mapped memory-side cache, a page map consulted on every miss,
// strided and random streams — so it slows down when the simulator
// does. The workloads run it between their units of work, never beside
// them, and scale the time metrics of the run (all but advisord-mix's
// schedule-set wall) by refYardstickS over the median of its samples: a
// time metric reads as seconds on a host that runs the yardstick in
// refYardstickS.
//
// The kernel is a frozen copy: it must not follow changes to the
// library (a faster simulator must read as faster, not cancel out), and
// changing it changes the unit of every time metric. yardWant pins its
// output, so an edit that changes what it computes fails every run.

// refYardstickS is about the yardstick's time on the reference host (a
// quiet 2-vCPU Intel Xeon VM), the unit time metrics are scaled to.
const refYardstickS = 0.060

// yardWant is the kernel's checksum (hits, misses and traffic).
const yardWant uint64 = 0xb07c37d6d73157ec

// hostSpeed collects a run's yardstick samples.
type hostSpeed struct {
	state   *yardState // allocated at the first sample
	samples []float64  // seconds
	err     error
}

// sample runs the yardstick kernel once, on the calling goroutine, and
// records its time. One kernel at a time: two at once, one per vCPU, at
// times ran 1.7 times slower while the two-worker sweeps did not.
func (h *hostSpeed) sample() {
	if h.state == nil {
		h.state = newYardState()
	}
	start := time.Now()
	sum := h.state.run()
	t := time.Since(start).Seconds()
	if sum != yardWant && h.err == nil {
		h.err = fmt.Errorf("yardstick kernel checksum %#x, want %#x: the frozen kernel was changed", sum, yardWant)
	}
	h.samples = append(h.samples, t)
}

// factor is the factor for host time anywhere in the run: over the
// median of its samples (1 without samples).
func (h *hostSpeed) factor() float64 {
	if h == nil || len(h.samples) == 0 {
		return 1
	}
	return refYardstickS / median(h.samples)
}

// yardLRU is a set-associative cache with true LRU in a packed nibble
// order word per set.
type yardLRU struct {
	lineShift    uint
	setMask      uint64
	ways         int
	tags         []uint64
	order        []uint64
	orderMask    uint64
	initOrder    uint64
	hits, misses uint64
}

func newYardLRU(size uint64, ways int, lineShift uint) *yardLRU {
	sets := size >> lineShift / uint64(ways)
	c := &yardLRU{lineShift: lineShift, setMask: sets - 1, ways: ways,
		tags: make([]uint64, sets*uint64(ways)), order: make([]uint64, sets),
		orderMask: ^uint64(0) >> (64 - 4*uint(ways))}
	for w := 0; w < ways; w++ {
		c.initOrder |= uint64(w) << (4 * uint(w))
	}
	return c
}

func (c *yardLRU) access(addr uint64) bool {
	line := addr >> c.lineShift
	set := line & c.setMask
	base := int(set) * c.ways
	tag := line + 1
	ts := c.tags[base : base+c.ways]
	ord := c.order[set]
	if ts[ord&0xf] == tag {
		c.hits++
		return true
	}
	for w, t := range ts {
		if t == tag {
			pos := 1
			for o := ord >> 4; o&0xf != uint64(w); o >>= 4 {
				pos++
			}
			low := ord & (uint64(1)<<(4*uint(pos)) - 1)
			high := ord &^ (uint64(1)<<(4*uint(pos+1)) - 1)
			c.order[set] = high | low<<4 | uint64(w)
			c.hits++
			return true
		}
	}
	victim := ord >> (4 * uint(c.ways-1))
	ts[victim] = tag
	c.order[set] = (ord<<4 | victim) & c.orderMask
	c.misses++
	return false
}

// yardDirect is a direct-mapped memory-side cache.
type yardDirect struct {
	shift        uint
	mask         uint64
	tags         []uint64
	hits, misses uint64
}

func (c *yardDirect) access(addr uint64) bool {
	block := addr >> c.shift
	idx := block & c.mask
	if c.tags[idx] == block+1 {
		c.hits++
		return true
	}
	c.tags[idx] = block + 1
	c.misses++
	return false
}

// yardPages is an open-addressing page map, page number -> lines
// missed, with the tier fixed by the page number.
type yardPages struct {
	keys  []uint64 // page number + 1; 0 = empty
	lines []uint64
	n     int
}

func (m *yardPages) touch(page uint64) (tier uint64) {
	mask := uint64(len(m.keys) - 1)
	for i := mix64(page) & mask; ; i = (i + 1) & mask {
		switch m.keys[i] {
		case page + 1:
			m.lines[i]++
			return page % 3
		case 0:
			m.keys[i], m.lines[i] = page+1, 1
			m.n++
			return page % 3
		}
	}
}

// yardState is one kernel's memory, allocated once per copy and reset
// before every run, so the kernel allocates nothing and its time does
// not depend on the garbage collector's state.
type yardState struct {
	l1, llc *yardLRU
	mc      *yardDirect
	pages   *yardPages
}

func newYardState() *yardState {
	return &yardState{
		l1:    newYardLRU(32<<10, 8, 6),
		llc:   newYardLRU(1<<20, 16, 6),
		mc:    &yardDirect{shift: 12, mask: 1<<11 - 1, tags: make([]uint64, 1<<11)},
		pages: &yardPages{keys: make([]uint64, 1<<15), lines: make([]uint64, 1<<15)},
	}
}

func (s *yardState) reset() {
	for _, c := range []*yardLRU{s.l1, s.llc} {
		clear(c.tags)
		for i := range c.order {
			c.order[i] = c.initOrder
		}
		c.hits, c.misses = 0, 0
	}
	clear(s.mc.tags)
	s.mc.hits, s.mc.misses = 0, 0
	clear(s.pages.keys)
	clear(s.pages.lines)
	s.pages.n = 0
}

// run pushes a fixed stream through L1 -> LLC -> (memory-side cache) ->
// page map: six phases, each a strided sweep of 4 MB and 150k random
// touches over a 64 MB footprint, the odd phases behind the
// direct-mapped cache. It returns a checksum of what it computed.
func (s *yardState) run() uint64 {
	const footprint = 64 << 20
	s.reset()
	var traffic [3]uint64
	x := uint64(0x9e3779b97f4a7c15)
	touch := func(addr uint64, cached bool) {
		if s.l1.access(addr) || s.llc.access(addr) {
			return
		}
		if cached && s.mc.access(addr) {
			return
		}
		traffic[s.pages.touch(addr>>12)] += 64
	}
	for phase := uint64(0); phase < 6; phase++ {
		cached := phase%2 == 1
		base := phase * (8 << 20) % footprint
		for a := uint64(0); a < 4<<20; a += 8 {
			touch(base+a, cached)
		}
		for k := 0; k < 150_000; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			touch(x%footprint, cached)
		}
	}
	sum := uint64(s.pages.n)
	for _, v := range []uint64{s.l1.hits, s.l1.misses, s.llc.hits, s.llc.misses, s.mc.hits, s.mc.misses, traffic[0], traffic[1], traffic[2]} {
		sum = mix64(sum ^ v)
	}
	return sum
}
