package protocol

import (
	"cmp"
	"math/bits"
	"slices"

	"radar/internal/object"
)

// objTable is a host's object table: the §4.1 control state of every
// hosted object. sts holds the hosted objects' states by value in
// ascending ID order, so the "for each object x_s" loops of Fig. 3 and
// Fig. 5 read them in place, with no lookup and no sort; every add and
// remove shifts the states above it, so a *objState is valid only until
// the next one, and a walk that may see one advances by ID (next). By-ID
// lookups (Has, settle, CreateObj, load reports) read a bitmap of the
// hosted IDs and a rank per bitmap word: rank[w] counts the hosted IDs
// below 64·w, so id sits at rank[id>>6] plus the hosted IDs of its own
// word below it. Both grow to the host's highest ID: about
// 3.75 KB a host over 20,000 objects. deferred holds the lost-handshake
// moves awaiting their retry, ascending by ID, at most one per hosted
// object; remove takes an object's with it.
type objTable struct {
	sts      []objState
	bits     object.Set
	rank     []int32
	deferred []move
}

// at returns id's position in sts, and whether the host holds id.
func (t *objTable) at(id object.ID) (int, bool) {
	if !t.bits.Has(id) {
		return 0, false
	}
	return int(t.rank[id>>6]) + bits.OnesCount64(t.bits[id>>6]&(1<<(id&63)-1)), true
}

// get returns id's state, or nil if the host does not hold id.
func (t *objTable) get(id object.ID) *objState {
	if at, ok := t.at(id); ok {
		return &t.sts[at]
	}
	return nil
}

// add installs and returns a state for id, zeroed but for its ID; id must
// not be negative or present.
func (t *objTable) add(id object.ID) *objState {
	t.bits.Add(id)
	for len(t.rank) < len(t.bits) {
		t.rank = append(t.rank, int32(len(t.sts)))
	}
	above := t.rank[id>>6+1:]
	for w := range above {
		above[w]++
	}
	at, _ := t.at(id)
	t.sts = slices.Insert(t.sts, at, objState{id: uint32(id)})
	return &t.sts[at]
}

// remove deletes id's state and its deferred move, reporting whether id
// was present.
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
	t.sts = slices.Delete(t.sts, at, at+1)
	if d, ok := t.deferral(id); ok {
		t.deferred = slices.Delete(t.deferred, d, d+1)
	}
	return true
}

// next returns the position of the first state above id, which a walk
// handled at position at: at+1 if id is still there, else (id dropped, or
// a peer's CreateObj added a lower ID while the host waited on a
// handshake) the count of held IDs up to id.
func (t *objTable) next(at int, id object.ID) int {
	if at < len(t.sts) && object.ID(t.sts[at].id) == id {
		return at + 1
	}
	w := int(id >> 6)
	if w >= len(t.bits) {
		return len(t.sts)
	}
	return int(t.rank[w]) + bits.OnesCount64(t.bits[w]&(2<<(id&63)-1))
}

// deferral returns where id's deferred move is or would go in deferred,
// and whether id has one.
func (t *objTable) deferral(id object.ID) (int, bool) {
	if len(t.deferred) == 0 {
		return 0, false
	}
	return slices.BinarySearchFunc(t.deferred, id, func(mv move, id object.ID) int { return cmp.Compare(mv.id, id) })
}

// deferMove records mv as its held object's deferred move, superseding any.
func (t *objTable) deferMove(mv move) {
	if d, ok := t.deferral(mv.id); ok {
		t.deferred[d] = mv
	} else {
		t.deferred = slices.Insert(t.deferred, d, mv)
	}
}
