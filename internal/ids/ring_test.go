package ids

import (
	"math/big"
	"math/rand"
	"testing"
)

// The reference ring arithmetic, on math/big integers modulo 2^160.
var ringSize = new(big.Int).Lsh(big.NewInt(1), Bits)

func bigOf(id ID) *big.Int { return new(big.Int).SetBytes(id[:]) }

// refBetween reports whether x is on the open arc (a, b): its clockwise
// distance from a is positive and short of b's, where a == b makes the
// arc the whole ring.
func refBetween(x, a, b ID) bool {
	dx := new(big.Int).Sub(bigOf(x), bigOf(a))
	dx.Mod(dx, ringSize)
	db := new(big.Int).Sub(bigOf(b), bigOf(a))
	db.Mod(db, ringSize)
	if db.Sign() == 0 {
		db.Set(ringSize)
	}
	return dx.Sign() > 0 && dx.Cmp(db) < 0
}

// checkRing compares Cmp, Less, Between and BetweenRightIncl on one
// triple with the reference.
func checkRing(t *testing.T, x, a, b ID) {
	t.Helper()
	if got, want := x.Cmp(a), bigOf(x).Cmp(bigOf(a)); got != want {
		t.Fatalf("Cmp(%s, %s) = %d, want %d", x, a, got, want)
	}
	if got, want := x.Less(a), bigOf(x).Cmp(bigOf(a)) < 0; got != want {
		t.Fatalf("Less(%s, %s) = %v, want %v", x, a, got, want)
	}
	want := refBetween(x, a, b)
	if got := Between(x, a, b); got != want {
		t.Fatalf("Between(%s, %s, %s) = %v, want %v", x, a, b, got, want)
	}
	if got, want := BetweenRightIncl(x, a, b), want || x == b; got != want {
		t.Fatalf("BetweenRightIncl(%s, %s, %s) = %v, want %v", x, a, b, got, want)
	}
}

// edgeIDs are the values where word and wrap-around logic breaks: the
// ends of the ring, its middle, and values that differ only in one
// byte at either end.
func edgeIDs() []ID {
	one := FromUint64(1)
	var max, half, lowByte, highByte ID
	for i := range max {
		max[i] = 0xff
	}
	half[0] = 0x80
	lowByte[Bytes-1] = 0x80
	highByte[0] = 0x01
	return []ID{
		{}, one, max, max.Sub(one), half, half.Sub(one), half.Add(one),
		lowByte, highByte, FromUint64(1 << 32), FromUint64(1<<32 - 1),
	}
}

func TestRingArithmeticMatchesBigInt(t *testing.T) {
	edges := edgeIDs()
	for _, x := range edges {
		for _, a := range edges {
			for _, b := range edges {
				checkRing(t, x, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	random := func() ID {
		var id ID
		rng.Read(id[:])
		return id
	}
	one := FromUint64(1)
	for i := 0; i < 20000; i++ {
		x, a, b := random(), random(), random()
		checkRing(t, x, a, b)
		// Endpoints and their neighbours, equal endpoints, and an edge
		// value in every position.
		checkRing(t, a, a, b)
		checkRing(t, b, a, b)
		checkRing(t, a.Add(one), a, b)
		checkRing(t, b.Sub(one), a, b)
		checkRing(t, x, a, a)
		e := edges[i%len(edges)]
		checkRing(t, e, a, b)
		checkRing(t, x, e, b)
		checkRing(t, x, a, e)
	}
}

// idOf turns fuzz bytes into an identifier: the first Bytes of them,
// zero-padded.
func idOf(b []byte) ID {
	var id ID
	copy(id[:], b)
	return id
}

func FuzzBetween(f *testing.F) {
	edges := edgeIDs()
	for i, a := range edges {
		b := edges[(i+3)%len(edges)]
		f.Add(a[:], a[:], b[:])
		f.Add(b[:], a[:], b[:])
		f.Add(edges[(i+5)%len(edges)][:], a[:], b[:])
		f.Add(a[:], b[:], b[:])
	}
	f.Fuzz(func(t *testing.T, x, a, b []byte) {
		checkRing(t, idOf(x), idOf(a), idOf(b))
	})
}
