package flows

import (
	"math/bits"
	"strconv"
	"strings"
)

// Set is a bitset over flow IDs. The Markov models evaluate many set-algebra
// expressions of the form ruleⱼ \ ∪ rule_{j'} (Section IV of the paper), so
// coverage sets are represented as packed words.
//
// The zero value is an empty set that can grow on Add.
type Set struct {
	words []uint64
}

// NewSet returns an empty set sized for flows in [0, n).
func NewSet(n int) Set {
	return Set{words: make([]uint64, (n+63)/64)}
}

// SetOf builds a set holding exactly the given flows.
func SetOf(ids ...ID) Set {
	var s Set
	for _, id := range ids {
		s.Add(id)
	}
	return s
}

func (s *Set) grow(word int) {
	for len(s.words) <= word {
		s.words = append(s.words, 0)
	}
}

// Add inserts id into the set.
func (s *Set) Add(id ID) {
	w := int(id) / 64
	s.grow(w)
	s.words[w] |= 1 << (uint(id) % 64)
}

// Remove deletes id from the set.
func (s *Set) Remove(id ID) {
	w := int(id) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(id) % 64)
	}
}

// Contains reports whether id is in the set.
func (s Set) Contains(id ID) bool {
	w := int(id) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(id)%64)) != 0
}

// Len returns the number of flows in the set.
func (s Set) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no members.
func (s Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s Set) Clone() Set {
	out := Set{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// Union returns s ∪ t as a new set.
func (s Set) Union(t Set) Set {
	longer, shorter := s.words, t.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	out := make([]uint64, len(longer))
	copy(out, longer)
	for i, w := range shorter {
		out[i] |= w
	}
	return Set{words: out}
}

// SubtractInPlace removes every member of t from s without allocating.
func (s *Set) SubtractInPlace(t Set) {
	for i := 0; i < len(s.words) && i < len(t.words); i++ {
		s.words[i] &^= t.words[i]
	}
}

// UnionInPlace adds every member of t to s.
func (s *Set) UnionInPlace(t Set) {
	s.grow(len(t.words) - 1)
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// Overlaps reports whether s ∩ t is non-empty.
func (s Set) Overlaps(t Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same flows.
func (s Set) Equal(t Set) bool {
	longer, shorter := s.words, t.words
	if len(shorter) > len(longer) {
		longer, shorter = shorter, longer
	}
	for i, w := range shorter {
		if w != longer[i] {
			return false
		}
	}
	for _, w := range longer[len(shorter):] {
		if w != 0 {
			return false
		}
	}
	return true
}

// IDs returns the members in ascending order.
func (s Set) IDs() []ID {
	out := make([]ID, 0, s.Len())
	s.ForEach(func(id ID) { out = append(out, id) })
	return out
}

// ForEach calls fn for every member in ascending order.
func (s Set) ForEach(fn func(ID)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(ID(wi*64 + b))
			w &^= 1 << uint(b)
		}
	}
}

// SumRates returns Σ_{f ∈ s} rates[f]. It is the workhorse of the rate
// computations γ and Γ in Section IV.
func (s Set) SumRates(rates []float64) float64 {
	var sum float64
	for wi, w := range s.words {
		base := wi * 64
		for w != 0 {
			b := bits.TrailingZeros64(w)
			sum += rates[base+b]
			w &^= 1 << uint(b)
		}
	}
	return sum
}

// String renders the set as "{0,3,7}".
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(id ID) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(strconv.Itoa(int(id)))
	})
	b.WriteByte('}')
	return b.String()
}
