package protocol

import (
	"math/bits"
	"slices"

	"radar/internal/object"
)

// objTable is a host's object table: the §4.1 control state of every
// hosted object. sts lists the hosted objects' states in ascending ID
// order, each carrying its ID, so the "for each object x_s" loops of
// Fig. 3 and Fig. 5 read the states in place, with no lookup and no sort.
// By-ID lookups (Has, settle, CreateObj, load reports) read a bitmap of the
// hosted IDs and a rank per bitmap word: rank[w] counts the hosted IDs
// below 64·w, so id sits at rank[id>>6] plus the hosted IDs of its own word
// below it. Both grow to the host's highest ID: about 3.75 KB a host over
// 20,000 objects. States are allocated objSlab at a time onto free, so a
// host's states sit together in memory; remove zeroes a state and puts it
// back.
type objTable struct {
	sts  []*ObjectState
	bits object.Set
	rank []int32
	free []*ObjectState // zeroed states, the next to hand out last
}

const objSlab = 64

// at returns id's position in sts, and whether the host holds id.
func (t *objTable) at(id object.ID) (int, bool) {
	if !t.bits.Has(id) {
		return 0, false
	}
	return int(t.rank[id>>6]) + bits.OnesCount64(t.bits[id>>6]&(1<<(id&63)-1)), true
}

// get returns id's state, or nil if the host does not hold id.
func (t *objTable) get(id object.ID) *ObjectState {
	if at, ok := t.at(id); ok {
		return t.sts[at]
	}
	return nil
}

// add installs and returns a state for id, zeroed but for its ID; id must
// not be negative or present. The state is the last removed object's, or a
// new slab's first.
func (t *objTable) add(id object.ID) *ObjectState {
	if len(t.free) == 0 {
		slab := make([]ObjectState, objSlab)
		for i := range slab {
			t.free = append(t.free, &slab[objSlab-1-i])
		}
	}
	st := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	st.id = id
	t.bits.Add(id)
	for len(t.rank) < len(t.bits) {
		t.rank = append(t.rank, int32(len(t.sts)))
	}
	above := t.rank[id>>6+1:]
	for w := range above {
		above[w]++
	}
	at, _ := t.at(id)
	t.sts = slices.Insert(t.sts, at, st)
	return st
}

// remove deletes id and frees its state, reporting whether id was present.
func (t *objTable) remove(id object.ID) bool {
	at, ok := t.at(id)
	if !ok {
		return false
	}
	t.bits.Remove(id)
	above := t.rank[id>>6+1:]
	for w := range above {
		above[w]--
	}
	*t.sts[at] = ObjectState{}
	t.free = append(t.free, t.sts[at])
	t.sts = slices.Delete(t.sts, at, at+1)
	return true
}

// next returns the position after at once the walk has handled st there:
// at itself if st left the list, which moved the next object up.
func (t *objTable) next(at int, st *ObjectState) int {
	if at < len(t.sts) && t.sts[at] == st {
		at++
	}
	return at
}
