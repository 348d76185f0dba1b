package sim

import (
	"math/rand"
	"testing"
)

// The fast source only exists because its streams are frozen: golden
// export fixtures pin every draw made through RNG. These tests hold it
// to bit-identity with math/rand, not mere statistical quality.

func TestFastSourceActive(t *testing.T) {
	if !lfFastOK {
		t.Error("fast source failed its init self-check; NewRNG is using the slow fallback")
	}
}

// testSeeds spans the seed reduction's edge cases: zero (replaced by
// lfSeed0), negatives, multiples of the modulus, and the int64 limits.
var testSeeds = []int64{0, 1, 2, -1, -7, 42, 1469598103934665603,
	lfMax, lfMax + 1, -lfMax, 1 << 40, -(1 << 52), 1<<63 - 1, -1 << 63}

// The lazy prefix and the register must agree at every cut: draw k
// values (lazily, or across the switch), then 2,000 more that run
// through the register well past one full cycle of the 607-slot
// register, so the feed/tap wraparound is exercised; then check the
// masked Int63 path as well as Uint64.
func TestFastSourceMatchesStdlib(t *testing.T) {
	for _, cut := range []int{0, 1, lfLazyMax - 1, lfLazyMax, lfLazyMax + 1, lfTap} {
		for _, seed := range testSeeds {
			want := rand.NewSource(seed).(rand.Source64)
			got := newLFSource(seed)
			for k := 0; k < cut+2000; k++ {
				if w, g := want.Uint64(), got.Uint64(); w != g {
					t.Fatalf("cut %d, seed %d: Uint64 #%d: stdlib %#x, fast %#x", cut, seed, k, w, g)
				}
			}
			if w, g := want.Int63(), got.Int63(); w != g {
				t.Fatalf("cut %d, seed %d: Int63: stdlib %#x, fast %#x", cut, seed, w, g)
			}
		}
	}
}

// Reseeding an existing source must match a freshly seeded one,
// whether the source is still lazy or already holds a register; a kept
// register is refilled, not replayed from its old state.
func TestFastSourceReseed(t *testing.T) {
	for _, before := range []int{0, 3, lfLazyMax, lfLazyMax + 1, 1000} {
		s := newLFSource(1)
		for k := 0; k < before; k++ {
			s.Uint64()
		}
		reg := s.reg
		s.Seed(99)
		if s.full || s.reg != reg {
			t.Fatalf("after %d draws: Seed left full=%v, register replaced=%v", before, s.full, s.reg != reg)
		}
		fresh := newLFSource(99)
		for k := 0; k < 700; k++ {
			if w, g := fresh.Uint64(), s.Uint64(); w != g {
				t.Fatalf("reseeded after %d draws: diverged at draw %d: %#x vs %#x", before, k, w, g)
			}
		}
	}
}

// A source that has served only a few draws holds no register.
func TestLazySourceDefersRegister(t *testing.T) {
	s := newLFSource(7)
	for k := 0; k < lfLazyMax; k++ {
		s.Uint64()
	}
	if s.reg != nil || s.full {
		t.Fatalf("register built after %d draws", lfLazyMax)
	}
	s.Uint64()
	if s.reg == nil || !s.full {
		t.Fatalf("register not built after %d draws", lfLazyMax+1)
	}
}

// The distributions rand.Rand derives from the source must match the
// stdlib's too, from the first draw (lazy) through the switch.
func TestLazySourceDistributions(t *testing.T) {
	for _, seed := range testSeeds {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newLFSource(seed))
		for k := 0; k < 200; k++ {
			if w, g := want.Float64(), got.Float64(); w != g {
				t.Fatalf("seed %d: Float64 #%d: %v vs %v", seed, k, w, g)
			}
			if w, g := want.NormFloat64(), got.NormFloat64(); w != g {
				t.Fatalf("seed %d: NormFloat64 #%d: %v vs %v", seed, k, w, g)
			}
			if w, g := want.ExpFloat64(), got.ExpFloat64(); w != g {
				t.Fatalf("seed %d: ExpFloat64 #%d: %v vs %v", seed, k, w, g)
			}
			n := int64(k+1) * 1000003
			if w, g := want.Int63n(n), got.Int63n(n); w != g {
				t.Fatalf("seed %d: Int63n(%d) #%d: %d vs %d", seed, n, k, w, g)
			}
		}
	}
}

// FuzzLazySource compares a lazy source with math/rand over k draws,
// wherever k falls relative to the lazy limit, plus one full register
// cycle.
func FuzzLazySource(f *testing.F) {
	for _, k := range []uint16{0, 1, lfLazyMax, lfLazyMax + 1, lfTap, lfLen} {
		f.Add(int64(k)*7919-3, k)
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint16) {
		want := rand.NewSource(seed).(rand.Source64)
		got := newLFSource(seed)
		for i := 0; i < int(k)+lfLen; i++ {
			if w, g := want.Uint64(), got.Uint64(); w != g {
				t.Fatalf("seed %d: Uint64 #%d: stdlib %#x, fast %#x", seed, i, w, g)
			}
		}
	})
}

// A child stream that draws only a few values costs one allocation:
// the RNG with its lazy source inline (80 B on 64-bit platforms), and
// no 4.9 KB register.
const lightChildMaxBytes = 96

func TestLightChildBytes(t *testing.T) {
	if !lfFastOK {
		t.Skip("fast source inactive")
	}
	r := testing.Benchmark(BenchmarkRNGChildFewDraws)
	if b, n := r.AllocedBytesPerOp(), r.AllocsPerOp(); b > lightChildMaxBytes || n > 1 {
		t.Errorf("Child + 2 draws allocates %d B in %d objects, ceiling %d B in 1", b, n, lightChildMaxBytes)
	}
}

var benchSink int64

// BenchmarkRNGChildFewDraws is the common stream's whole life: most
// child streams draw at most a few values.
func BenchmarkRNGChildFewDraws(b *testing.B) {
	parent := NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := parent.Child("flow")
		benchSink += c.Int63() + c.Int63()
	}
}

// BenchmarkFastSourceMaterialize times building the register: the
// four-chain fill plus replaying the lazy prefix.
func BenchmarkFastSourceMaterialize(b *testing.B) {
	s := newLFSource(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Seed(int64(i))
		s.lazy = lfLazyMax
		benchSink += s.Int63()
	}
}

func BenchmarkStdlibSourceSeed(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rand.NewSource(int64(i))
	}
}
