package stats

import (
	"math"
	"sync"
)

// The order-statistic kernel behind Sample.Sort: an LSD radix sort on
// the order-preserving IEEE-754 key. A float's bit pattern, read as an
// unsigned integer, orders non-negative values correctly but negative
// values backwards and below every positive one; flipping every bit of
// a negative value and only the sign bit of a non-negative one fixes
// both, so unsigned key order is numeric order (with −0 just below +0).
// NaN never reaches the kernel: Sample.Add drops it.
const (
	radixBits   = 11
	radixBins   = 1 << radixBits
	radixPasses = (64 + radixBits - 1) / radixBits // 6

	// radixCutoff is the size below which sort.Float64s wins. Each
	// kernel call pays a fixed cost, six prefix scans over 2,048-bucket
	// histograms (~9 µs), that pdqsort's n log n only overtakes near 768
	// values (BenchmarkSampleSort; DESIGN.md §15).
	radixCutoff = 768
)

// radixScratch is the kernel's per-call working set, pooled so that a
// warm sort allocates nothing: one ping-pong buffer the size of the
// input and the digit histograms of all passes.
type radixScratch struct {
	buf   []uint64
	count [radixPasses][radixBins]int
}

var radixPool = sync.Pool{New: func() any { return new(radixScratch) }}

// radixKey maps a float's bits to an unsigned key in numeric order.
func radixKey(b uint64) uint64 {
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// radixSortFloat64s sorts NaN-free xs in place. Values travel between
// xs and the pooled buffer as raw bit patterns, and every pass
// recomputes the key from them, so no intermediate key is ever stored
// as a float. A pass whose digit is the same for every key is skipped.
func radixSortFloat64s(xs []float64) {
	n := len(xs)
	if n < 2 {
		return
	}
	sc := radixPool.Get().(*radixScratch)
	if cap(sc.buf) < n {
		sc.buf = make([]uint64, n)
	}
	buf := sc.buf[:n]
	count := &sc.count
	clear(count[:])

	const m = radixBins - 1
	for _, x := range xs {
		k := radixKey(math.Float64bits(x))
		count[0][k&m]++
		count[1][(k>>radixBits)&m]++
		count[2][(k>>(2*radixBits))&m]++
		count[3][(k>>(3*radixBits))&m]++
		count[4][(k>>(4*radixBits))&m]++
		count[5][k>>(5*radixBits)]++
	}

	inBuf := false // whether the current order lives in buf
	first := radixKey(math.Float64bits(xs[0]))
	for p := range count {
		shift := p * radixBits
		c := &count[p]
		if c[(first>>shift)&(radixBins-1)] == n {
			continue
		}
		// Exclusive prefix sums turn digit counts into start offsets.
		sum := 0
		for d, v := range c {
			c[d] = sum
			sum += v
		}
		if inBuf {
			for _, b := range buf {
				d := (radixKey(b) >> shift) & (radixBins - 1)
				xs[c[d]] = math.Float64frombits(b)
				c[d]++
			}
		} else {
			for _, x := range xs {
				b := math.Float64bits(x)
				d := (radixKey(b) >> shift) & (radixBins - 1)
				buf[c[d]] = b
				c[d]++
			}
		}
		inBuf = !inBuf
	}
	if inBuf {
		for i, b := range buf {
			xs[i] = math.Float64frombits(b)
		}
	}
	radixPool.Put(sc)
}
