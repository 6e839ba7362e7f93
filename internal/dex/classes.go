package dex

import (
	"fmt"
	"hash/maphash"
	"math/bits"

	"repro/internal/jimple"
)

// This file holds a container's class headers as integers. Both decoders
// read every header into a classTable, with the eager checks in the eager
// order, and check the table for inheritance cycles at the end of the
// open. The eager decoder then builds each class as it goes; a lazy open
// builds none: its program asks the table for a class by name (OwnSlot)
// and builds the class from its header the first time a lookup reaches it
// (Lazy.BuildClass). The table's arrays hold no pointer, and Release
// recycles them with the index's.

// classHeader is one class of the container, by slot (its position in the
// container): its name, superclass and interfaces as type ids, its flags
// and, on a lazy open, where its members sit: its field section and its
// method headers Lazy.hdrs[mlo:mhi].
type classHeader struct {
	name, super      int32
	ifaces           span // into classTable.ifaces
	flags            byte
	fields, mlo, mhi int32
}

// typeEntry is one type name a header uses: the pool id it was first read
// at, and the slot of the live class of that name plus one, 0 for a type
// no class of the container defines.
type typeEntry struct{ name, own int32 }

// classTable is the class headers of a container and the type names they
// use. A type id is dense from 0 and names one string, however often the
// pool holds it; the hash table finds a name's id in constant time. Of
// several classes of one name the last is live, as Program.AddClass keeps
// the last. Index.finish adds the reverse subtype edges (subs).
type classTable struct {
	headers []classHeader
	ifaces  []int32     // the headers' interfaces, as type ids
	types   []typeEntry // by type id
	// tab is an open-addressing hash table over types, a power of two
	// long: type id + 1 by the name's hash, 0 for an empty cell.
	tab []int32
	// replaced reports a class that a later class of its name replaced.
	replaced bool
	// subs maps a type id to the live slots whose superclass or an
	// interface it is, one entry per edge.
	subs csr
	// live counts the live classes.
	live int
}

// typeSeed seeds the type-name hash. Nothing depends on the order it
// gives.
var typeSeed = maphash.MakeSeed()

// tableSize is the hash table length for about n names: a power of two at
// least twice n.
func tableSize(n int) int { return 1 << bits.Len(uint(2*n+15)) }

// begin readies t for n classes, in s's arrays where they have the room.
func (t *classTable) begin(n int, s *spare) {
	*t = classTable{
		headers: room(s.headers, n),
		ifaces:  s.ifaces[:0],
		types:   room(s.types, n+8),
		tab:     reuse(s.tab, tableSize(n)),
	}
}

// room returns s emptied when it can hold n elements, else a new empty
// slice that can.
func room[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// find returns the type id of name s, or -1.
func (t *classTable) find(pool []string, s string) int32 {
	mask := uint64(len(t.tab) - 1)
	for i := maphash.String(typeSeed, s) & mask; ; i = (i + 1) & mask {
		e := t.tab[i]
		if e == 0 {
			return -1
		}
		if pool[t.types[e-1].name] == s {
			return e - 1
		}
	}
}

// intern returns the type id of the name at pool id p, adding it on first
// sight.
func (t *classTable) intern(pool []string, p int32) int32 {
	s := pool[p]
	mask := uint64(len(t.tab) - 1)
	i := maphash.String(typeSeed, s) & mask
	for ; t.tab[i] != 0; i = (i + 1) & mask {
		if e := t.tab[i]; pool[t.types[e-1].name] == s {
			return e - 1
		}
	}
	id := int32(len(t.types))
	t.types = append(t.types, typeEntry{name: p})
	t.tab[i] = id + 1
	if 2*len(t.types) > len(t.tab) {
		t.grow(pool)
	}
	return id
}

// grow doubles the hash table.
func (t *classTable) grow(pool []string) {
	t.tab = make([]int32, 2*len(t.tab))
	mask := uint64(len(t.tab) - 1)
	for id, e := range t.types {
		i := maphash.String(typeSeed, pool[e.name]) & mask
		for t.tab[i] != 0 {
			i = (i + 1) & mask
		}
		t.tab[i] = int32(id) + 1
	}
}

// name returns the name of type id.
func (t *classTable) name(pool []string, id int32) string { return pool[t.types[id].name] }

// isLive reports whether slot holds the live class of its name.
func (t *classTable) isLive(slot int32) bool {
	return t.types[t.headers[slot].name].own == slot+1
}

// ownSlot returns the slot of the live class named by type id, or -1.
func (t *classTable) ownSlot(id int32) int32 { return t.types[id].own - 1 }

// supers calls fn on the type ids of slot's direct supertypes: its
// superclass, unless it has none (""), then its interfaces, in order.
func (t *classTable) supers(pool []string, slot int32, fn func(id int32)) {
	h := &t.headers[slot]
	if t.name(pool, h.super) != "" {
		fn(h.super)
	}
	for _, id := range t.ifaces[h.ifaces.lo:h.ifaces.hi] {
		fn(id)
	}
}

// classHeader reads the header of the class at the next slot — name,
// superclass, flags and interfaces, with the eager checks in the eager
// order — into the table, and returns its slot.
func (d *decoder) classHeader() (int32, error) {
	t := d.ct
	var h classHeader
	name, err := d.refIdx()
	if err != nil {
		return 0, err
	}
	super, err := d.refIdx()
	if err != nil {
		return 0, err
	}
	if h.flags, err = d.byte(); err != nil {
		return 0, err
	}
	nif, err := d.count("interface")
	if err != nil {
		return 0, err
	}
	h.ifaces.lo = int32(len(t.ifaces))
	for i := 0; i < nif; i++ {
		p, err := d.refIdx()
		if err != nil {
			return 0, err
		}
		t.ifaces = append(t.ifaces, d.typeOf(p))
		if d.lazy != nil {
			d.lazy.l.markRef(p)
		}
	}
	h.ifaces.hi = int32(len(t.ifaces))
	h.name, h.super = d.typeOf(name), d.typeOf(super)
	if d.lazy != nil {
		d.lazy.l.markRef(super)
	}
	slot := int32(len(t.headers))
	if e := &t.types[h.name]; e.own != 0 {
		t.replaced = true
	} else {
		t.live++
	}
	t.types[h.name].own = slot + 1
	t.headers = append(t.headers, h)
	return slot, nil
}

// typeOf returns the type id of the name at pool id p, hashing each pool
// entry once.
func (d *decoder) typeOf(p int32) int32 {
	if id := d.poolType[p]; id != 0 {
		return id - 1
	}
	id := d.ct.intern(d.pool, p)
	d.poolType[p] = id + 1
	return id
}

// setHeader fills c's header — name, superclass, interfaces, flags — from
// the header at slot.
func (d *decoder) setHeader(c *jimple.Class, slot int32) {
	t := d.ct
	h := &t.headers[slot]
	c.Name, c.Super = t.name(d.pool, h.name), t.name(d.pool, h.super)
	c.IsIface = h.flags&flagIface != 0
	c.Abstract = h.flags&flagAbstract != 0
	if ids := t.ifaces[h.ifaces.lo:h.ifaces.hi]; len(ids) > 0 {
		c.Interfaces = d.strs.take(len(ids))
		for i, id := range ids {
			c.Interfaces[i] = t.name(d.pool, id)
		}
	}
}

// cycleFrame is one class on the cycle check's path and the next of its
// supertypes to follow (0 the superclass, i the i-th interface).
type cycleFrame struct{ slot, next int32 }

// checkCycles rejects a class that is its own supertype. One colouring
// pass runs over the live classes in slot order, following each class's
// superclass, then its interfaces, where they name a live class: the
// first edge back onto the path names the class the error reports, so
// both decoders, which run it over the same table, phrase the same
// error. colour and stack are scratch, returned grown.
func (t *classTable) checkCycles(pool []string, colour []byte, stack []cycleFrame) ([]byte, []cycleFrame, error) {
	const (
		white byte = iota
		grey
		black
	)
	colour = reuse(colour, len(t.headers))
	for root := range t.headers {
		if colour[root] != white || !t.isLive(int32(root)) {
			continue
		}
		colour[root] = grey
		stack = append(stack[:0], cycleFrame{slot: int32(root)})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			h := &t.headers[f.slot]
			var next int32 = -1
			switch n := f.next; {
			case n == 0:
				if t.name(pool, h.super) != "" {
					next = t.ownSlot(h.super)
				}
			case n <= h.ifaces.hi-h.ifaces.lo:
				next = t.ownSlot(t.ifaces[h.ifaces.lo+n-1])
			default:
				colour[f.slot] = black
				stack = stack[:len(stack)-1]
				continue
			}
			f.next++
			if next < 0 {
				continue
			}
			switch colour[next] {
			case grey:
				return colour, stack, fmt.Errorf("class %s: inheritance cycle", t.name(pool, t.headers[next].name))
			case white:
				colour[next] = grey
				stack = append(stack, cycleFrame{slot: next})
			}
		}
	}
	return colour, stack, nil
}
