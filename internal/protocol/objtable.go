package protocol

import (
	"math/bits"
	"slices"

	"radar/internal/object"
)

// objTable is a host's object table: the §4.1 control state of every
// hosted object. ids lists the hosted IDs in ascending order and sts[i] is
// ids[i]'s state, so the "for each object x_s" loops of Fig. 3 and Fig. 5
// read the states in place, with no lookup and no sort. slots is an
// open-addressed index from ID to state (multiplicative hash, linear
// probing, backward-shift delete, at most half full) for Has, settle,
// CreateObj and load reports: one probe sequence over 16-byte slots, sized
// to the hosted count (about 16 KB for 500 objects) rather than dense over
// the universe. It doubles and never shrinks. States are allocated objSlab
// at a time onto free, so a host's states sit together in memory; remove
// zeroes a state and puts it back.
type objTable struct {
	ids   []object.ID
	sts   []*ObjectState
	slots []objSlot
	shift uint           // 64 - log2(len(slots)): the hash keeps the product's top bits
	free  []*ObjectState // zeroed states, the next to hand out last
}

// objSlot is one index slot; st == nil marks it free.
type objSlot struct {
	id object.ID
	st *ObjectState
}

const minObjSlots, objSlab = 8, 64

// home returns the slot id hashes to (Fibonacci hashing: IDs homed
// round-robin arrive as arithmetic progressions, which it spreads evenly).
func (t *objTable) home(id object.ID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> t.shift)
}

// get returns id's state, or nil if the host does not hold id.
func (t *objTable) get(id object.ID) *ObjectState {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.st == nil || s.id == id {
			return s.st
		}
	}
}

// add installs and returns a zeroed state for id, which must not be
// present: the last removed object's, or a new slab's first.
func (t *objTable) add(id object.ID) *ObjectState {
	if len(t.free) == 0 {
		slab := make([]ObjectState, objSlab)
		for i := range slab {
			t.free = append(t.free, &slab[objSlab-1-i])
		}
	}
	st := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	if 2*(len(t.ids)+1) > len(t.slots) {
		t.grow()
	}
	t.place(id, st)
	at, _ := slices.BinarySearch(t.ids, id)
	t.ids = slices.Insert(t.ids, at, id)
	t.sts = slices.Insert(t.sts, at, st)
	return st
}

// place stores (id, st) in the first free slot of id's probe sequence.
func (t *objTable) place(id object.ID, st *ObjectState) {
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].st != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = objSlot{id: id, st: st}
}

// grow doubles the index and re-places every entry.
func (t *objTable) grow() {
	old := t.slots
	n := max(minObjSlots, 2*len(old))
	t.slots = make([]objSlot, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.st != nil {
			t.place(s.id, s.st)
		}
	}
}

// remove deletes id, reporting whether it was present, and frees its
// state. The hole it leaves in the index is closed by shifting back every
// later entry of the run that may move without passing its own home slot,
// so lookups need no tombstones.
func (t *objTable) remove(id object.ID) bool {
	if t.get(id) == nil {
		return false
	}
	mask := len(t.slots) - 1
	hole := t.home(id)
	for t.slots[hole].id != id { // present, so no free slot comes first
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; t.slots[j].st != nil; j = (j + 1) & mask {
		// The entry at j may fill the hole iff its home is not cyclically
		// inside (hole, j]: it sits at least as far from home as from the hole.
		if (j-t.home(t.slots[j].id))&mask >= (j-hole)&mask {
			t.slots[hole] = t.slots[j]
			hole = j
		}
	}
	t.slots[hole] = objSlot{}
	at, _ := slices.BinarySearch(t.ids, id)
	*t.sts[at] = ObjectState{}
	t.free = append(t.free, t.sts[at])
	t.ids = slices.Delete(t.ids, at, at+1)
	t.sts = slices.Delete(t.sts, at, at+1)
	return true
}

// next returns the position after at once the walk has handled id there:
// at itself if id left the list, which moved the next object up.
func (t *objTable) next(at int, id object.ID) int {
	if at < len(t.ids) && t.ids[at] == id {
		at++
	}
	return at
}

// each calls fn on every hosted object's state, in ascending ID order.
func (t *objTable) each(fn func(*ObjectState)) {
	for _, st := range t.sts {
		fn(st)
	}
}
