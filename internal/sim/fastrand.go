package sim

import (
	"math/rand"
	"reflect"
	"unsafe"
)

// Fast-seeding, lazily materialized source, bit-identical to math/rand.
//
// Every testbed or fleet build derives labeled child streams per run,
// link, flow, endpoint and connection, and math/rand's generator pays
// ~1900 Schrage-division LCG steps and a 4.9 KB register per Seed. The
// RNG streams, however, are frozen: golden export fixtures pin every
// draw, so the generator cannot change, only the cost of seeding it.
//
// lfSource therefore reimplements the same additive lagged-Fibonacci
// generator (length 607, tap 273) with the seeding LCG's modulus
// folded instead of divided: 2^31 ≡ 1 (mod 2^31−1), so A·x mod M is a
// 64-bit multiply, a mask, a shift-add, and one conditional subtract —
// ~10x cheaper than the hi/lo division pair, with mathematically
// identical results. The table of cooked constants the seeder XORs in
// is recovered once at init from an actual seeded math/rand source
// (compute our own LCG terms, XOR them out of the observed state), and
// a self-check then replays several seeds against math/rand; if layout
// or output ever disagrees, lfFastOK stays false and NewRNG falls back
// to the stock source — slower, never wrong.
//
// Most streams draw a handful of values or none, so the register is
// built only when a stream keeps drawing. Draw k (1-based) returns
// vec[334−k] + vec[607−k] and writes the sum back to vec[334−k]; for
// k ≤ lfTap neither slot has been written yet, so the draw is the sum
// of two freshly seeded slots, and a slot costs one jump multiply
// (lfSlotJump) plus its three LCG steps. The first lfLazyMax draws are
// served that way; the next one allocates the register, fills it, and
// replays them.

const (
	lfLen    = 607
	lfTap    = 273
	lfMax    = 1<<31 - 1 // the seeding LCG's Mersenne modulus
	lfSeedA  = 48271     // its multiplier (MINSTD, as in math/rand)
	lfSeed0  = 89482311  // replacement for the degenerate zero seed
	lfWarmup = 20        // LCG steps discarded before filling the state

	// lfLazyMax is how many draws a source serves from the seeding LCG
	// before it builds the register. A lazy draw costs two slot
	// computations against one add for a built register, so past a few
	// dozen draws the register pays for itself (DESIGN.md §17).
	lfLazyMax = 32
)

// A lazy draw reads two pristine slots only while k ≤ lfTap; this
// array's length goes negative, failing the build, if lfLazyMax > lfTap.
var _ [lfTap - lfLazyMax]struct{}

var (
	lfCooked [lfLen]int64
	lfFastOK bool

	// lfSlotJump[i] = A^(warmup + 3·i) mod M: the one-multiply jump
	// from the seed to the LCG state just before slot i's three terms,
	// for a lazy draw's slots and for the start of each of fill's four
	// chains (computed once in init).
	lfSlotJump [lfLen]uint64
)

// lfChainBase splits the 607 slots into four near-equal runs; the last
// chain is one slot short (607 = 3·152 + 151).
var lfChainBase = [5]int{0, 152, 304, 456, lfLen}

// lfModmul returns a·b mod 2^31−1 for a, b < 2^31, folding the 62-bit
// product twice.
func lfModmul(a, b uint64) uint64 {
	p := a * b
	p = (p & lfMax) + (p >> 31)
	p = (p & lfMax) + (p >> 31)
	if p >= lfMax {
		p -= lfMax
	}
	return p
}

// lfSeedrand advances the seeding LCG: A·x mod (2^31−1) by folding.
func lfSeedrand(x int32) int32 {
	v := lfSeedA * uint64(uint32(x))
	v = (v & lfMax) + (v >> 31) // can reach lfMax+48270: reduce before narrowing
	if v >= lfMax {
		v -= lfMax
	}
	return int32(v)
}

// lfSlot returns register slot i as fill computes it: the three LCG
// steps after A^(warmup + 3·i)·seed, packed and XORed with the cooked
// constant. seed must already be reduced as lfSource.Seed reduces it.
func lfSlot(seed uint64, i int) int64 {
	x := int32(lfModmul(seed, lfSlotJump[i]))
	x = lfSeedrand(x)
	u := int64(x) << 40
	x = lfSeedrand(x)
	u ^= int64(x) << 20
	x = lfSeedrand(x)
	u ^= int64(x)
	return u ^ lfCooked[i]
}

// lfSource is the lagged-Fibonacci generator, lazy until its
// (lfLazyMax+1)-th draw after a Seed.
type lfSource struct {
	seed int64 // reduced into [1, lfMax)
	lazy int   // draws served lazily since the last Seed
	full bool  // reg holds this seed's state and serves every draw
	reg  *lfRegister
}

// lfRegister is the materialized state: vec[feed] += vec[tap], with
// both cursors walking backwards through the register.
type lfRegister struct {
	vec       [lfLen]int64
	tap, feed int
}

func newLFSource(seed int64) *lfSource {
	s := &lfSource{}
	s.Seed(seed)
	return s
}

// Seed resets the source to lazy mode. A register built for an earlier
// seed is kept for reuse.
func (s *lfSource) Seed(seed int64) {
	seed %= lfMax
	if seed < 0 {
		seed += lfMax
	}
	if seed == 0 {
		seed = lfSeed0
	}
	s.seed, s.lazy, s.full = seed, 0, false
}

// fill seeds the register exactly as math/rand does: a warmed-up LCG
// contributes three terms per slot, XORed with the cooked table. The
// nominal computation is one 1841-step serial recurrence; because the
// LCG jumps in one modular multiply (x after n more steps is A^n·x mod
// M), fill instead positions four chains at precomputed offsets and
// advances them interleaved, so the multiplies of independent chains
// pipeline instead of serializing on one dependency chain. seed must
// already be reduced as lfSource.Seed reduces it.
func (r *lfRegister) fill(seed int64) {
	r.tap = 0
	r.feed = lfLen - lfTap
	x0 := int32(lfModmul(uint64(seed), lfSlotJump[lfChainBase[0]]))
	x1 := int32(lfModmul(uint64(seed), lfSlotJump[lfChainBase[1]]))
	x2 := int32(lfModmul(uint64(seed), lfSlotJump[lfChainBase[2]]))
	x3 := int32(lfModmul(uint64(seed), lfSlotJump[lfChainBase[3]]))
	fill := func(x int32, i int) (int32, int) {
		x = lfSeedrand(x)
		u := int64(x) << 40
		x = lfSeedrand(x)
		u ^= int64(x) << 20
		x = lfSeedrand(x)
		u ^= int64(x)
		r.vec[i] = u ^ lfCooked[i]
		return x, i + 1
	}
	i0, i1, i2, i3 := lfChainBase[0], lfChainBase[1], lfChainBase[2], lfChainBase[3]
	for j := 0; j < lfLen-lfChainBase[3]; j++ { // the shortest chain's length
		x0, i0 = fill(x0, i0)
		x1, i1 = fill(x1, i1)
		x2, i2 = fill(x2, i2)
		x3, i3 = fill(x3, i3)
	}
	for i0 < lfChainBase[1] { // drain the longer chains' leftover slots
		x0, i0 = fill(x0, i0)
	}
	for i1 < lfChainBase[2] {
		x1, i1 = fill(x1, i1)
	}
	for i2 < lfChainBase[3] {
		x2, i2 = fill(x2, i2)
	}
}

func (r *lfRegister) next() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += lfLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += lfLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

func (s *lfSource) Uint64() uint64 {
	if s.full {
		return s.reg.next()
	}
	if s.lazy < lfLazyMax {
		s.lazy++
		k := s.lazy
		seed := uint64(s.seed)
		return uint64(lfSlot(seed, lfLen-lfTap-k) + lfSlot(seed, lfLen-k))
	}
	s.materialize()
	return s.reg.next()
}

// materialize builds the register for the current seed and replays the
// draws already served lazily, leaving it where the lazy path stopped.
func (s *lfSource) materialize() {
	if s.reg == nil {
		s.reg = &lfRegister{}
	}
	s.reg.fill(s.seed)
	for k := 0; k < s.lazy; k++ {
		s.reg.next()
	}
	s.full = true
}

func (s *lfSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func init() {
	// A^(warmup + 3·i) mod M for every slot, by iterated modular
	// multiplication (about 630 multiplies, once).
	p := uint64(1)
	for step := 0; step < lfWarmup; step++ {
		p = lfModmul(p, lfSeedA)
	}
	a3 := lfModmul(lfModmul(lfSeedA, lfSeedA), lfSeedA)
	for i := range lfSlotJump {
		lfSlotJump[i] = p
		p = lfModmul(p, a3)
	}
	if !lfRecoverCooked() {
		return
	}
	// Replay a spread of seeds against math/rand, past both the lazy
	// prefix and one full register cycle; any disagreement (algorithm
	// drift in a future stdlib) keeps the fallback.
	for _, seed := range []int64{0, 1, -7, 42, lfMax, 1 << 40, -(1 << 52)} {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(newLFSource(seed))
		for k := 0; k < 700; k++ { // past one full register cycle
			if want.Int63() != got.Int63() {
				return
			}
		}
	}
	lfFastOK = true
}

// lfRecoverCooked reads one seeded math/rand register and XORs out our
// own LCG terms, leaving the cooked table. Returns false if the
// stdlib's internal layout no longer matches.
func lfRecoverCooked() (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	v := reflect.ValueOf(rand.NewSource(1))
	if v.Kind() != reflect.Pointer {
		return false
	}
	f := v.Elem().FieldByName("vec")
	if !f.IsValid() || f.Kind() != reflect.Array || f.Len() != lfLen ||
		f.Type().Elem().Kind() != reflect.Int64 || !f.CanAddr() {
		return false
	}
	vec := (*[lfLen]int64)(unsafe.Pointer(f.UnsafeAddr()))
	x := int32(1)
	for i := -lfWarmup; i < lfLen; i++ {
		x = lfSeedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = lfSeedrand(x)
			u ^= int64(x) << 20
			x = lfSeedrand(x)
			u ^= int64(x)
			lfCooked[i] = u ^ vec[i]
		}
	}
	return true
}
