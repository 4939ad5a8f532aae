package object

// Set is a set of IDs kept as a bitmap, one bit per ID: bit id&63 of word
// id>>6. IDs are dense, so it costs a bit per ID of the universe however
// many it holds. It grows to the highest ID added and never shrinks; a
// negative ID, or one past its last word, is absent.
type Set []uint64

// Has reports whether id is in s.
func (s Set) Has(id ID) bool {
	w := uint(id) >> 6
	return w < uint(len(s)) && s[w]&(1<<(uint(id)&63)) != 0
}

// Add puts id, which must not be negative, into s, growing s to its word.
func (s *Set) Add(id ID) {
	if w := int(id >> 6); w >= len(*s) {
		*s = append(*s, make([]uint64, w+1-len(*s))...)
	}
	(*s)[id>>6] |= 1 << (uint(id) & 63)
}

// Remove takes id out of s and reports whether it was present.
func (s Set) Remove(id ID) bool {
	had := s.Has(id)
	if had {
		s[id>>6] &^= 1 << (uint(id) & 63)
	}
	return had
}
