package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

const negZeroBits = 1 << 63

// checkSorted compares got, a sorted copy of in, with sort.Float64s's
// ordering of the same values: element-wise ==, bitwise when the input
// holds no −0, and with the input's −0s all present. When total is set
// got must also be in key order, as the radix kernel leaves it: −0
// before +0, which sort.Float64s treats as equal.
func checkSorted(t *testing.T, in, got []float64, total bool) {
	t.Helper()
	want := slices.Clone(in)
	sort.Float64s(want)
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d", len(got), len(want))
	}
	negZeros := 0
	for _, x := range in {
		if math.Float64bits(x) == negZeroBits {
			negZeros++
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d: [%d] = %v, want %v", len(in), i, got[i], want[i])
		}
		if negZeros == 0 && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: [%d] bits %#x, want %#x", len(in), i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
		if total && i > 0 && radixKey(math.Float64bits(got[i-1])) > radixKey(math.Float64bits(got[i])) {
			t.Fatalf("n=%d: keys out of order at %d: %v then %v", len(in), i, got[i-1], got[i])
		}
	}
	for _, x := range got {
		if math.Float64bits(x) == negZeroBits {
			negZeros--
		}
	}
	if negZeros != 0 {
		t.Fatalf("n=%d: −0 count changed by %d", len(in), -negZeros)
	}
}

// FuzzSampleSort checks the radix kernel, and Sample's size-switched
// sort, against sort.Float64s. The input is raw little-endian float64s
// (NaNs dropped), tiled out to size values; tiles after the first have
// their low mode&63 mantissa bits scrambled (0 keeps exact duplicates),
// and mode>>6 pre-orders the input: 1 ascending, 2 descending.
func FuzzSampleSort(f *testing.F) {
	le := func(xs ...float64) []byte {
		b := make([]byte, 8*len(xs))
		for i, x := range xs {
			binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
		}
		return b
	}
	f.Add(le(3, 1, 2), uint16(0), uint8(0))
	f.Add(le(math.Inf(1), -1, math.Inf(-1), 0), uint16(0), uint8(0))
	f.Add(le(math.Copysign(0, -1), 0, math.Copysign(0, -1), 0), uint16(radixCutoff+1), uint8(0))
	f.Add(le(5e-324, -5e-324, 2.2e-308, -2.2e-308), uint16(1000), uint8(40))
	f.Add(le(1.5, 1.5, 1.5), uint16(radixCutoff-1), uint8(0))
	f.Add(le(28.2, 31.7, 250.4, 19.9), uint16(4000), uint8(1<<6|52))
	f.Add(le(28.2, 31.7, 250.4, 19.9), uint16(4000), uint8(2<<6|52))
	f.Add(le(-7, 1e300, -1e-300, 42), uint16(radixCutoff), uint8(3<<6|63))

	f.Fuzz(func(t *testing.T, raw []byte, size uint16, mode uint8) {
		var vals []float64
		for i := 0; i+8 <= len(raw); i += 8 {
			if x := math.Float64frombits(binary.LittleEndian.Uint64(raw[i:])); !math.IsNaN(x) {
				vals = append(vals, x)
			}
		}
		if len(vals) == 0 {
			return
		}
		n := max(len(vals), int(size)%8193)
		mask := uint64(1)<<(mode&63) - 1
		in := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			b := math.Float64bits(vals[i%len(vals)])
			if i >= len(vals) {
				h := uint64(i) * 0x9e3779b97f4a7c15
				b ^= (h ^ h>>29) & mask
			}
			if x := math.Float64frombits(b); !math.IsNaN(x) {
				in = append(in, x)
			}
		}
		switch mode >> 6 {
		case 1:
			slices.Sort(in)
		case 2:
			slices.Sort(in)
			slices.Reverse(in)
		}

		got := slices.Clone(in)
		radixSortFloat64s(got)
		checkSorted(t, in, got, true)

		s := New()
		s.AddAll(in)
		s.Sort()
		checkSorted(t, in, s.xs, len(in) >= radixCutoff)
	})
}

func TestRadixSortSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 5000} {
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.NormFloat64() * 100
		}
		got := slices.Clone(in)
		radixSortFloat64s(got)
		checkSorted(t, in, got, true)
	}
}

// TestSampleSortAllocFree pins the pooled scratch: once the pool is
// warm, re-sorting a 200k-value sample allocates nothing.
func TestSampleSortAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	rng := rand.New(rand.NewSource(2))
	s := New()
	for i := 0; i < 200_000; i++ {
		s.Add(20 + rng.ExpFloat64()*30)
	}
	shuffle := func(i, j int) { s.xs[i], s.xs[j] = s.xs[j], s.xs[i] }
	allocs := testing.AllocsPerRun(5, func() {
		rng.Shuffle(len(s.xs), shuffle)
		s.sorted = false
		s.Sort()
	})
	if allocs != 0 {
		t.Errorf("re-sorting a warm 200k sample: %.1f allocs, want 0", allocs)
	}
	if !slices.IsSorted(s.xs) {
		t.Error("sample not sorted")
	}
}

// TestAddAllGrowsOnce pins AddAll to at most one backing-array growth
// per call, however many values it appends.
func TestAddAllGrowsOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	batch := make([]float64, 5000)
	for i := range batch {
		batch[i] = float64(i)
	}
	batch[17] = math.NaN()
	s := New()
	allocs := testing.AllocsPerRun(20, func() {
		s.xs = nil
		s.AddAll(batch)
	})
	if allocs > 1 {
		t.Errorf("AddAll of %d values into an empty sample: %.1f allocs, want <= 1", len(batch), allocs)
	}
	if s.N() != len(batch)-1 {
		t.Errorf("N = %d, want %d (NaN dropped)", s.N(), len(batch)-1)
	}
}

// BenchmarkSampleSort times the radix kernel against sort.Float64s on
// RTT-like values; the crossover between the two sets radixCutoff.
func BenchmarkSampleSort(b *testing.B) {
	for _, n := range []int{32, 512, 1 << 10, 2 << 10, 4 << 10, 64 << 10, 1 << 20} {
		rng := rand.New(rand.NewSource(int64(n)))
		src := make([]float64, n)
		for i := range src {
			src[i] = 20 + rng.ExpFloat64()*30
		}
		xs := make([]float64, n)
		for _, k := range []struct {
			name string
			sort func([]float64)
		}{
			{"radix", radixSortFloat64s},
			{"stdlib", sort.Float64s},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, k.name), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * n))
				for i := 0; i < b.N; i++ {
					copy(xs, src)
					k.sort(xs)
				}
			})
		}
	}
}
