package protocol

import (
	"math/bits"
	"slices"

	"radar/internal/object"
)

// objTable is a host's object table: the §4.1 control state of every
// hosted object, reachable two ways. ids lists the hosted IDs in ascending
// order, so the "for each object x_s" loops of Fig. 3 and Fig. 5 walk it
// as is instead of collecting and sorting keys. slots is an open-addressed
// index from ID to state (multiplicative hash, linear probing,
// backward-shift delete, at most half full), so Has, OnRequest and a load
// report cost one probe sequence over 16-byte slots. It is sized to the
// hosted count — about 16 KB on a host of 500 objects — rather than dense
// over the universe, which every host of a fleet would pay for in full.
// It grows by doubling and never shrinks: it is bounded by the most
// objects the host ever held at once.
type objTable struct {
	ids   []object.ID
	slots []objSlot
	shift uint // 64 - log2(len(slots)): the hash keeps the product's top bits
}

// objSlot is one index slot; st == nil marks it free.
type objSlot struct {
	id object.ID
	st *ObjectState
}

const minObjSlots = 8

func (t *objTable) len() int { return len(t.ids) }

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

// put installs st as id's state; id must not be present and st not nil.
func (t *objTable) put(id object.ID, st *ObjectState) {
	if 2*(len(t.ids)+1) > len(t.slots) {
		t.grow()
	}
	t.place(id, st)
	at, _ := slices.BinarySearch(t.ids, id)
	t.ids = slices.Insert(t.ids, at, id)
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

// remove deletes id, reporting whether it was present. The hole it leaves
// is closed by shifting back every later entry of the run that may move
// without passing its own home slot, so lookups need no tombstones.
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
	t.ids = slices.Delete(t.ids, at, at+1)
	return true
}

// each calls fn on every hosted object's state, in no particular order.
func (t *objTable) each(fn func(*ObjectState)) {
	for i := range t.slots {
		if st := t.slots[i].st; st != nil {
			fn(st)
		}
	}
}
