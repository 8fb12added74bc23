package hashing

import (
	"math/big"
	"testing"
	"testing/quick"

	"feww/internal/xrand"
)

func TestMulMod61AgainstBigInt(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		got := MulMod61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMulMod61BoundaryOperands checks MulMod61 against math/big on the
// boundary operands 0, 1 and p-1 (paired with each other and with random
// operands) and on random operands drawn from the top of the field, where
// the single-fold reduction's bound is tightest.
func TestMulMod61BoundaryOperands(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	check := func(a, b uint64) {
		t.Helper()
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		if got := MulMod61(a, b); got != want.Uint64() {
			t.Fatalf("MulMod61(%d, %d) = %d, want %d", a, b, got, want.Uint64())
		}
	}
	rng := xrand.New(61)
	operands := []uint64{0, 1, 2, MersennePrime61 - 2, MersennePrime61 - 1, 1 << 60, 1<<61 - 1<<30}
	for i := 0; i < 200; i++ {
		operands = append(operands, rng.Uint64n(MersennePrime61), MersennePrime61-1-rng.Uint64n(1<<20))
	}
	for _, a := range operands {
		for _, b := range operands {
			check(a, b)
		}
	}
}

// TestPowMod61BatchMatchesPowMod61 checks the interleaved chains against
// PowMod61 elementwise, for batch lengths on both sides of the four-wide
// groups and exponents from 0 to 64 bits.
func TestPowMod61BatchMatchesPowMod61(t *testing.T) {
	rng := xrand.New(62)
	for n := 0; n <= 13; n++ {
		for _, exp := range []uint64{0, 1, 2, 3, 1023, 1 << 17, rng.Uint64n(1 << 20), rng.Uint64(), ^uint64(0)} {
			xs := make([]uint64, n)
			for i := range xs {
				xs[i] = rng.Uint64n(MersennePrime61)
			}
			if n > 0 {
				xs[0] = 0
			}
			if n > 1 {
				xs[n-1] = MersennePrime61 - 1
			}
			want := make([]uint64, n)
			for i, x := range xs {
				want[i] = PowMod61(x, exp)
			}
			PowMod61Batch(xs, exp)
			for i := range xs {
				if xs[i] != want[i] {
					t.Fatalf("n=%d exp=%d: element %d = %d, want %d", n, exp, i, xs[i], want[i])
				}
			}
		}
	}
}

// TestPairMatchesPoly checks that NewPair draws and evaluates exactly the
// hash NewPoly(rng, 2) does from the same RNG state, over keys on both
// sides of p.
func TestPairMatchesPoly(t *testing.T) {
	rng := xrand.New(63)
	for trial := 0; trial < 200; trial++ {
		state := rng.State()
		poly := NewPoly(rng, 2)
		rng.SetState(state)
		pair := NewPair(rng)
		for _, x := range []uint64{0, 1, MersennePrime61 - 1, MersennePrime61, MersennePrime61 + 5, ^uint64(0), rng.Uint64()} {
			if pair.Hash(x) != poly.Hash(x) || pair.HashRange(x, 24) != poly.HashRange(x, 24) {
				t.Fatalf("trial %d: Pair and Poly disagree at %d", trial, x)
			}
		}
	}
	if (Pair{}).SpaceWords() != NewPoly(rng, 2).SpaceWords() {
		t.Fatal("Pair and Poly report different space")
	}
}

func TestAddSubMod61(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		sum := AddMod61(a, b)
		if sum >= MersennePrime61 {
			return false
		}
		// (a + b) - b == a
		return SubMod61(sum, b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowInvMod61(t *testing.T) {
	f := func(a uint64) bool {
		a = a%(MersennePrime61-1) + 1 // non-zero
		return MulMod61(a, InvMod61(a)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if PowMod61(3, 0) != 1 {
		t.Error("x^0 != 1")
	}
	if PowMod61(2, 61) != MulMod61(PowMod61(2, 60), 2) {
		t.Error("PowMod61 inconsistent")
	}
}

func TestPolyHashRange(t *testing.T) {
	rng := xrand.New(1)
	h := NewPoly(rng, 3)
	f := func(x, m uint64) bool {
		if m == 0 {
			m = 1
		}
		m = m%100000 + 1
		return h.HashRange(x, m) < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPolyHashSpread(t *testing.T) {
	rng := xrand.New(2)
	h := NewPoly(rng, 2)
	const buckets = 16
	counts := make([]int, buckets)
	for x := uint64(0); x < 16000; x++ {
		counts[h.HashRange(x, buckets)]++
	}
	for i, c := range counts {
		if c < 600 || c > 1400 {
			t.Errorf("bucket %d badly skewed: %d/16000", i, c)
		}
	}
}

func TestPolyDifferentInstancesDiffer(t *testing.T) {
	rng := xrand.New(3)
	h1, h2 := NewPoly(rng, 2), NewPoly(rng, 2)
	same := 0
	for x := uint64(0); x < 100; x++ {
		if h1.Hash(x) == h2.Hash(x) {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("independent hash functions agree on %d/100 points", same)
	}
}

func TestSignBalance(t *testing.T) {
	rng := xrand.New(4)
	h := NewPoly(rng, 4)
	pos := 0
	for x := uint64(0); x < 10000; x++ {
		s := h.Sign(x)
		if s != 1 && s != -1 {
			t.Fatalf("Sign returned %d", s)
		}
		if s == 1 {
			pos++
		}
	}
	if pos < 4500 || pos > 5500 {
		t.Fatalf("sign hash unbalanced: %d/10000 positive", pos)
	}
}

func TestFingerprintSingleton(t *testing.T) {
	rng := xrand.New(5)
	fp := NewFingerprint(rng)
	if !fp.Zero() {
		t.Fatal("fresh fingerprint not zero")
	}
	fp.Update(42, 3)
	if !fp.Matches(42, 3) {
		t.Fatal("fingerprint does not match its own singleton")
	}
	if fp.Matches(42, 2) || fp.Matches(41, 3) {
		t.Fatal("fingerprint matched a wrong singleton")
	}
}

func TestFingerprintCancellation(t *testing.T) {
	rng := xrand.New(6)
	fp := NewFingerprint(rng)
	updates := [][2]int64{{10, 5}, {20, -2}, {30, 7}}
	for _, u := range updates {
		fp.Update(uint64(u[0]), u[1])
	}
	for _, u := range updates {
		fp.Update(uint64(u[0]), -u[1])
	}
	if !fp.Zero() {
		t.Fatal("fingerprint not zero after full cancellation")
	}
}

func TestFingerprintRejectsNonSingleton(t *testing.T) {
	rng := xrand.New(7)
	rejected := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		fp := NewFingerprint(rng)
		fp.Update(uint64(i), 1)
		fp.Update(uint64(i+1000), 1)
		// A two-element vector must not look like any plausible singleton.
		looksSingleton := fp.Matches(uint64(i), 2) || fp.Matches(uint64(i+1000), 2) ||
			fp.Matches(uint64(i)+500, 2)
		if !looksSingleton {
			rejected++
		}
	}
	if rejected < trials-2 {
		t.Fatalf("fingerprint accepted non-singletons: only %d/%d rejected", rejected, trials)
	}
}

func TestFingerprintNegativeCounts(t *testing.T) {
	rng := xrand.New(8)
	fp := NewFingerprint(rng)
	fp.Update(7, -4)
	if !fp.Matches(7, -4) {
		t.Fatal("fingerprint does not handle negative counts")
	}
}

func TestMultiplyShiftRange(t *testing.T) {
	rng := xrand.New(9)
	ms := NewMultiplyShift(rng, 10)
	for x := uint64(0); x < 10000; x++ {
		if ms.Hash(x) >= 1024 {
			t.Fatalf("MultiplyShift out of range: %d", ms.Hash(x))
		}
	}
}

func TestNewPolyPanics(t *testing.T) {
	rng := xrand.New(10)
	defer func() {
		if recover() == nil {
			t.Error("NewPoly(rng, 0) did not panic")
		}
	}()
	NewPoly(rng, 0)
}
